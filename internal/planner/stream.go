package planner

import (
	"context"
	"errors"

	"repro/internal/table"
)

// This file is the executor's one execution path: candidate ranges —
// the index scan's ranges, full-scan chunks — emitted row by row
// through a pull cursor on the caller's goroutine, one range at a
// time, in range order. Every range reads through one table iterator:
// filter ranges push the page predicate down (zone skip, then the
// vectorized strip filter), unfiltered ranges emit every row. With
// StopAfter n, scanning halts at the page holding the n-th matching
// row, which is what makes LIMIT pushdown bound pages read and not
// just rows returned. The caller's context is checked at page
// granularity (via table.Iter), making every query on this path
// cancellable.
//
// A statement runs on one goroutine; concurrency comes from serving
// statements concurrently. Every counter a stream reports is therefore
// a function of the statement and the data, not of timing.

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
	// rows: no page beyond the one holding the last emitted row is
	// read. -1 means unbounded.
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

// Stream starts a streaming scan of the tasks against tb (which
// carries the caller's accounting scope and access class).
func Stream(tb *table.Table, tasks []ScanTask, opts StreamOpts) *RowStream {
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
	return s
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

	ti        int
	it        *table.Iter
	buf       table.Record
	remaining int64 // StopAfter countdown; -1 = unbounded
}

// RowsExamined returns the in-range rows of the pages fetched so far:
// filtered pages test them all in the strip loop, unfiltered and
// zone-Inside pages emit them without a test.
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
func (s *RowStream) Err() error { return s.err }

// Next advances to the next matching row in range order. False means
// exhaustion, error, stop-bound reached, or cancellation.
func (s *RowStream) Next() bool {
	if s.closed || s.err != nil || s.remaining == 0 {
		return false
	}
	for {
		if s.it == nil {
			if s.ti >= len(s.tasks) {
				return false
			}
			t := s.tasks[s.ti]
			s.ti++
			var pred *table.PagePred
			if t.Filter {
				pred = s.pred
			}
			s.it = s.tb.IterRangePred(s.ctx, t.Lo, t.Hi, s.cols, pred, s.bound, &s.zc)
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

// Close releases the open range iterator. The stream's counters
// remain readable.
func (s *RowStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
}
