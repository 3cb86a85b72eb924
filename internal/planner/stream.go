package planner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/table"
	"repro/internal/vec"
)

// This file is the executor's one execution path: candidate ranges —
// kd-subtree BETWEEN ranges, Voronoi cell ranges, full-scan chunks —
// emitted row by row through a pull cursor. Two execution modes share
// one interface:
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
// marks ranges whose rows need the per-point polyhedron test
// (partial kd leaves and Voronoi cells; full-scan chunks always
// filter).
type ScanTask struct {
	Lo, Hi table.RowID
	Filter bool
}

// StreamOpts configures a streaming scan.
type StreamOpts struct {
	// Ctx cancels the scan; nil means no cancellation.
	Ctx context.Context
	// Cols selects the columns decoded into emitted records. Ranges
	// that filter additionally decode the magnitudes (the predicate
	// needs them).
	Cols table.ColumnSet
	// StopAfter, when >= 0, ends the stream after that many matching
	// rows and forces serial execution so the stop is exact: no page
	// beyond the one holding the last emitted row is read. -1 means
	// unbounded.
	StopAfter int64
	// Pred, when non-nil, pushes the filter of Filter-marked tasks
	// down into the table iterator: pages proven empty by their zone
	// maps are skipped without a read, and surviving pages run the
	// vectorized strip filter instead of the per-row test. The emitted
	// row set is identical to the per-row path's.
	Pred *table.PagePred
}

// batchRows is the parallel mode's handoff granularity; small enough
// to keep first-row latency low, large enough to amortize channel
// operations.
const batchRows = 256

// Stream starts a streaming scan of the tasks against tb (which
// carries the caller's accounting scope and access class). The
// polyhedron q filters rows of tasks with Filter set. Parallel
// execution is used when the pool has more than one worker, several
// tasks exist, and no StopAfter bound was requested.
func (e *Executor) Stream(tb *table.Table, q vec.Polyhedron, tasks []ScanTask, opts StreamOpts) *RowStream {
	s := &RowStream{
		tb:        tb,
		q:         q,
		tasks:     tasks,
		ctx:       opts.Ctx,
		cols:      opts.Cols,
		keepMags:  opts.Cols&table.ColMags != 0,
		remaining: opts.StopAfter,
		pred:      opts.Pred,
	}
	if w := e.workers(); w > 1 && len(tasks) > 1 && opts.StopAfter < 0 {
		s.startParallel(w)
	}
	return s
}

// FullScanTasks chunks a whole-table scan into page-aligned tasks:
// multiples of RecordsPerPage so workers never share a page, several
// per worker so stragglers balance out.
func (e *Executor) FullScanTasks(rows table.RowID) []ScanTask {
	chunk := table.RowID(table.RecordsPerPage)
	if w := table.RowID(e.workers()); w > 0 {
		if per := (rows + w*4 - 1) / (w * 4); per > chunk {
			chunk = (per + chunk - 1) / chunk * chunk
		}
	}
	var tasks []ScanTask
	for lo := table.RowID(0); lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		tasks = append(tasks, ScanTask{Lo: lo, Hi: hi, Filter: true})
	}
	return tasks
}

// RowStream is the pull iterator over a streaming scan. It is
// single-consumer; Close is idempotent and required unless Next has
// returned false after a full drain (calling it then is still safe).
type RowStream struct {
	tb    *table.Table
	q     vec.Polyhedron
	tasks []ScanTask
	ctx   context.Context
	cols  table.ColumnSet
	// keepMags records whether the caller asked for the magnitudes;
	// filter ranges decode them regardless (the predicate needs
	// them), and this flag says whether to zero them again before
	// emitting, so a projected query's records look the same whether
	// a row came from an inside or a partial range.
	keepMags bool
	// pred is the pushed-down page predicate; when set, Filter tasks
	// scan through zone-map-aware iterators that count into zc.
	pred *table.PagePred
	zc   table.ScanCounters

	examined atomic.Int64
	rec      *table.Record
	closed   bool
	err      error

	// Serial state.
	ti       int
	it       *table.Iter
	itFilter bool
	// itPred marks the current iterator as predicate-pushed: it has
	// already filtered and counted its rows.
	itPred    bool
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

// RowsExamined returns the rows decoded and tested so far (for
// predicate-pushed scans: rows of pages the zone maps could not
// prune). It is exact once the stream is drained or closed.
func (s *RowStream) RowsExamined() int64 { return s.examined.Load() + s.zc.Examined.Load() }

// ZoneStats returns the zone-map pruning counters of a
// predicate-pushed scan: pages skipped without a read, pages
// scanned, and magnitude strips decoded by the filter loop. All zero
// when no page predicate was pushed down.
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

// matches applies the per-point polyhedron test to a decoded row.
func (s *RowStream) matches(r *table.Record) bool {
	var m [table.Dim]float64
	for i, v := range r.Mags {
		m[i] = float64(v)
	}
	return engine.ContainsMags(s.q, &m)
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
			t := s.tasks[s.ti]
			s.ti++
			if t.Filter && s.pred != nil {
				// Predicate pushdown: the iterator zone-skips pages and
				// runs the vectorized strip filter; emitted rows are
				// already matches with exactly the requested columns.
				s.it = s.tb.IterRangePred(s.ctx, t.Lo, t.Hi, s.cols, s.pred, &s.zc)
				s.itFilter, s.itPred = false, true
			} else {
				cols := s.cols
				if t.Filter {
					cols |= table.ColMags
				}
				s.it = s.tb.IterRange(s.ctx, t.Lo, t.Hi, cols)
				s.itFilter, s.itPred = t.Filter, false
			}
		}
		for s.it.Next(&s.buf) {
			if !s.itPred {
				s.examined.Add(1)
			}
			if s.itFilter {
				if !s.matches(&s.buf) {
					continue
				}
				if !s.keepMags {
					s.buf.Mags = [table.Dim]float32{}
				}
			}
			if s.remaining > 0 {
				s.remaining--
			}
			s.rec = &s.buf
			return true
		}
		if err := s.it.Err(); err != nil {
			s.err = err
			s.it.Close()
			s.it = nil
			return false
		}
		s.it.Close()
		s.it = nil
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
	t := s.tasks[i]
	var it *table.Iter
	pred := t.Filter && s.pred != nil
	if pred {
		it = s.tb.IterRangePred(ctx, t.Lo, t.Hi, s.cols, s.pred, &s.zc)
	} else {
		cols := s.cols
		if t.Filter {
			cols |= table.ColMags
		}
		it = s.tb.IterRange(ctx, t.Lo, t.Hi, cols)
	}
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
		if !pred {
			s.examined.Add(1)
			if t.Filter {
				if !s.matches(&rec) {
					continue
				}
				if !s.keepMags {
					rec.Mags = [table.Dim]float32{}
				}
			}
		}
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
