package planner

import (
	"context"
	"errors"
	"sync"

	"repro/internal/table"
)

// This file is the executor's one execution path: candidate ranges —
// the index scan's ranges, full-scan chunks —
// emitted row by row through a pull cursor. Every range reads through
// one table iterator: filter ranges push the page predicate down (zone
// skip, then the vectorized strip filter), unfiltered ranges emit
// every row. Two execution modes share one interface:
//
//   - serial: rows are pulled straight off a table.Iter, one range
//     at a time. This mode supports exact early termination — with
//     StopAfter n, scanning halts at the page holding the n-th
//     matching row, which is what makes LIMIT pushdown bound pages
//     read and not just rows returned.
//   - parallel: ranges are fanned over the worker pool and their row
//     batches reassembled in range order through a bounded window,
//     so the stream yields exactly the serial row order while
//     upstream ranges are still being scanned. Closing the stream
//     cancels the shared context; workers abort their scans at the
//     next page boundary, so page I/O stops shortly after the
//     consumer walks away.
//
// Both modes check the caller's context at page granularity (via
// table.Iter), making every query on this path cancellable.

// ScanTask is one candidate row range of a streaming scan. Filter
// marks ranges whose rows need the predicate (partial kd leaves, the
// unindexed tail; full-scan chunks always filter).
type ScanTask struct {
	Lo, Hi table.RowID
	Filter bool
}

// StreamOpts configures a streaming scan.
type StreamOpts struct {
	// Ctx cancels the scan; nil means no cancellation.
	Ctx context.Context
	// Cols selects the columns decoded into emitted records; the
	// filter reads the magnitude strips on its own.
	Cols table.ColumnSet
	// StopAfter, when >= 0, ends the stream after that many matching
	// rows and forces serial execution so the stop is exact: no page
	// beyond the one holding the last emitted row is read. -1 means
	// unbounded.
	StopAfter int64
	// Pred is the filter of Filter-marked tasks, pushed down into the
	// table iterator: pages their zone proves empty are skipped without
	// a read (unless tb is a WithoutZones view), pages it proves full
	// emit every row, and the rest run the vectorized strip filter.
	// Required when any task filters.
	Pred *table.PagePred
	// Bound, when non-nil, is the k-th-key bound of an ordered LIMIT,
	// applied to every task, filtered or not: whoever ranks the rows
	// tightens it while the stream runs (table.KeyBound).
	Bound *table.KeyBound
}

// batchRows is the parallel mode's handoff granularity; small enough
// to keep first-row latency low, large enough to amortize channel
// operations.
const batchRows = 256

// Stream starts a streaming scan of the tasks against tb (which
// carries the caller's accounting scope and access class). With more
// than one worker and no StopAfter bound the tasks are split into
// balanced chunks and scanned in parallel.
func (e *Executor) Stream(tb *table.Table, tasks []ScanTask, opts StreamOpts) *RowStream {
	s := &RowStream{
		tb:        tb,
		tasks:     tasks,
		ctx:       opts.Ctx,
		cols:      opts.Cols,
		remaining: opts.StopAfter,
		pred:      opts.Pred,
		bound:     opts.Bound,
	}
	if opts.Pred == nil {
		for _, t := range tasks {
			if t.Filter {
				// Without its predicate a filter range would emit every row.
				s.err = errors.New("planner: filter task without a page predicate")
				return s
			}
		}
	}
	if w := e.workers(); w > 1 && opts.StopAfter < 0 {
		if s.tasks = splitTasks(tasks, w); len(s.tasks) > 1 {
			s.startParallel(w)
		}
	}
	return s
}

// splitTasks cuts ranges longer than a fair share of the scan into
// chunks so the workers balance: several chunks per worker, cut at
// absolute multiples of RecordsPerPage so no two chunks of a range
// share a page.
func splitTasks(tasks []ScanTask, workers int) []ScanTask {
	var rows table.RowID
	for _, t := range tasks {
		rows += t.Hi - t.Lo
	}
	chunk := table.RowID(table.RecordsPerPage)
	w := table.RowID(workers)
	if per := (rows + w*4 - 1) / (w * 4); per > chunk {
		chunk = (per + chunk - 1) / chunk * chunk
	}
	out := make([]ScanTask, 0, len(tasks))
	for _, t := range tasks {
		for lo := t.Lo; lo < t.Hi; {
			hi := min((lo/chunk+1)*chunk, t.Hi)
			out = append(out, ScanTask{Lo: lo, Hi: hi, Filter: t.Filter})
			lo = hi
		}
	}
	return out
}

// RowStream is the pull iterator over a streaming scan. It is
// single-consumer; Close is idempotent and required unless Next has
// returned false after a full drain (calling it then is still safe).
type RowStream struct {
	tb    *table.Table
	tasks []ScanTask
	ctx   context.Context
	cols  table.ColumnSet
	// pred filters the Filter tasks; zc accumulates every task's
	// iterator counters, filtered or not.
	pred  *table.PagePred
	bound *table.KeyBound
	zc    table.ScanCounters

	rec    *table.Record
	closed bool
	err    error

	// Serial state.
	ti        int
	it        *table.Iter
	buf       table.Record
	remaining int64 // StopAfter countdown; -1 = unbounded

	// Parallel state.
	parallel bool
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	slots    []chan []table.Record
	credits  chan struct{}
	perrMu   sync.Mutex
	perr     error // first worker error
	si       int
	batch    []table.Record
	bi       int
}

// RowsExamined returns the in-range rows of the pages fetched so far:
// filtered pages test them all in the strip loop, unfiltered and
// zone-Inside pages emit them without a test. It is exact once the
// stream is drained or closed.
func (s *RowStream) RowsExamined() int64 { return s.zc.Examined.Load() }

// ZoneStats returns the scan's page counters: pages skipped on their
// zone without a read (filter ranges by the predicate, any range by a
// published key bound), pages fetched (every range kind), and
// magnitude strips decoded by the filter loop.
func (s *RowStream) ZoneStats() (pagesSkipped, pagesScanned, stripsDecoded int64) {
	return s.zc.PagesSkipped.Load(), s.zc.PagesScanned.Load(), s.zc.StripsDecoded.Load()
}

// Record returns the row the last successful Next positioned on. The
// buffer may be reused by subsequent Next calls; copy to retain.
func (s *RowStream) Record() *table.Record { return s.rec }

// Err returns the first error the stream hit, including context
// cancellation. Nil after a clean drain.
func (s *RowStream) Err() error {
	if s.err != nil {
		return s.err
	}
	s.perrMu.Lock()
	defer s.perrMu.Unlock()
	return s.perr
}

// fail records the first worker error and cancels the exchange.
func (s *RowStream) fail(err error) {
	s.perrMu.Lock()
	if s.perr == nil {
		s.perr = err
	}
	s.perrMu.Unlock()
	s.cancel()
}

// Next advances to the next matching row in range order. False means
// exhaustion, error, stop-bound reached, or cancellation.
func (s *RowStream) Next() bool {
	if s.closed || s.err != nil {
		return false
	}
	if s.parallel {
		return s.nextParallel()
	}
	return s.nextSerial()
}

// Close releases resources and, in parallel mode, cancels the
// in-flight scans. The stream's counters remain readable.
func (s *RowStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	if s.parallel {
		s.cancel()
		// Unblock workers parked on slot sends, then wait them out so
		// no goroutine outlives the stream.
		s.wg.Wait()
	}
}

// open starts the iterator of one task: filter ranges carry the
// predicate, unfiltered ranges emit every row; both count into zc.
func (s *RowStream) open(ctx context.Context, t ScanTask) *table.Iter {
	var pred *table.PagePred
	if t.Filter {
		pred = s.pred
	}
	return s.tb.IterRangePred(ctx, t.Lo, t.Hi, s.cols, pred, s.bound, &s.zc)
}

func (s *RowStream) nextSerial() bool {
	if s.remaining == 0 {
		return false
	}
	for {
		if s.it == nil {
			if s.ti >= len(s.tasks) {
				return false
			}
			s.it = s.open(s.ctx, s.tasks[s.ti])
			s.ti++
		}
		if s.it.Next(&s.buf) {
			if s.remaining > 0 {
				s.remaining--
			}
			s.rec = &s.buf
			return true
		}
		err := s.it.Err()
		s.it.Close()
		s.it = nil
		if err != nil {
			s.err = err
			return false
		}
	}
}

// startParallel spins up the exchange: a dispatcher feeding task
// indices through an admission window, workers scanning ranges into
// row batches, and per-task slot channels the consumer drains in
// task order.
func (s *RowStream) startParallel(workers int) {
	s.parallel = true
	ctx := s.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, s.cancel = context.WithCancel(ctx)
	s.ctx = ctx

	if workers > len(s.tasks) {
		workers = len(s.tasks)
	}
	window := workers * 2
	s.slots = make([]chan []table.Record, len(s.tasks))
	for i := range s.slots {
		s.slots[i] = make(chan []table.Record, 2)
	}
	s.credits = make(chan struct{}, window)
	taskCh := make(chan int)

	// Dispatcher: admit a task only when the consumer is within
	// `window` tasks of it, bounding buffered rows.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(taskCh)
		for i := range s.tasks {
			select {
			case s.credits <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case taskCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for i := range taskCh {
				s.scanTask(ctx, i)
			}
		}()
	}
}

// scanTask scans one range, streaming its matching rows to the
// task's slot in bounded batches. The slot is always closed, even on
// abort, so the consumer never blocks on a dead task.
func (s *RowStream) scanTask(ctx context.Context, i int) {
	defer close(s.slots[i])
	it := s.open(ctx, s.tasks[i])
	defer it.Close()
	batch := make([]table.Record, 0, batchRows)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case s.slots[i] <- batch:
			batch = make([]table.Record, 0, batchRows)
			return true
		case <-ctx.Done():
			return false
		}
	}
	var rec table.Record
	for it.Next(&rec) {
		batch = append(batch, rec)
		if len(batch) == batchRows && !flush() {
			return
		}
	}
	if err := it.Err(); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Cancellation is the consumer's doing (Close, or the
			// caller's context): it surfaces through the consumer's
			// own ctx check, not as a scan failure.
			return
		}
		// Record the first failure and take the whole stream down:
		// a partial range must not be silently skipped.
		s.fail(err)
		return
	}
	flush()
}

func (s *RowStream) nextParallel() bool {
	for {
		if s.bi < len(s.batch) {
			s.rec = &s.batch[s.bi]
			s.bi++
			return true
		}
		if s.si >= len(s.slots) {
			// Fully drained: release the derived context and reap the
			// (already exiting) goroutines so stats are final.
			s.cancel()
			s.wg.Wait()
			return false
		}
		select {
		case b, ok := <-s.slots[s.si]:
			if !ok {
				s.si++
				// One admission credit frees per completed task.
				select {
				case <-s.credits:
				default:
				}
				continue
			}
			s.batch, s.bi = b, 0
		case <-s.ctx.Done():
			if s.err == nil && s.Err() == nil {
				s.err = s.ctx.Err()
			}
			return false
		}
	}
}
