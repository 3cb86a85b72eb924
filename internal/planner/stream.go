package planner

import (
	"context"
	"errors"

	"repro/internal/table"
)

// This file is the executor's one execution path: candidate ranges —
// the index scan's ranges, full-scan chunks — emitted row by row
// through a pull cursor on the caller's goroutine. Every range reads
// through one of two reused table iterators: filter ranges push the
// page predicate down (zone skip, then the vectorized strip filter),
// unfiltered ranges emit every row. Without a key bound the ranges run
// in range order, and with StopAfter n scanning halts at the page
// holding the n-th matching row, which is what makes LIMIT pushdown
// bound pages read and not just rows returned. Under the key bound of
// an ordered LIMIT the ranges are cut into pages and visited best zone
// key first, so the k-th key tightens as fast as the data allows, and
// the scan stops at the first page whose best key is worse than it. The
// caller's context is checked at page granularity (via table.Iter),
// making every query on this path cancellable.
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
	// tightens it while the stream runs (table.KeyBound). On a table
	// with zones it also orders the scan: pages are visited by
	// ascending (zone best key, RowID), and once a page's best key is
	// worse than τ it and every page after it are skipped unread. A
	// WithoutZones view has no best keys and runs in range order.
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
	if zones := tb.ZoneMaps(); opts.Bound != nil && zones != nil {
		s.units = pageUnits(tasks, opts.Bound, zones)
		s.ordered = true
	}
	return s
}

// pageUnit is one page of one task in a bounded scan's visiting order:
// its zone's best key under the bound, then its position.
type pageUnit struct {
	best float64
	pg   uint32
	task uint32
}

// less orders units by best key, then by RowID.
func (u *pageUnit) less(v *pageUnit) bool {
	if u.best != v.best {
		return u.best < v.best
	}
	return u.pg < v.pg
}

// pageUnits cuts the tasks into pages tagged with their best keys and
// heapifies them in O(n). The tasks are left untouched: a cached plan's
// ranges are shared between statements.
func pageUnits(tasks []ScanTask, b *table.KeyBound, zones *table.ZoneMaps) []pageUnit {
	const rpp = table.RecordsPerPage
	n := 0
	for _, t := range tasks {
		if t.Lo < t.Hi {
			n += int((t.Hi-1)/rpp - t.Lo/rpp + 1)
		}
	}
	units := make([]pageUnit, 0, n)
	for i, t := range tasks {
		if t.Lo >= t.Hi {
			continue
		}
		b.PageBests(zones, int(t.Lo/rpp), int((t.Hi-1)/rpp)+1, func(pg int, best float64) {
			units = append(units, pageUnit{best: best, pg: uint32(pg), task: uint32(i)})
		})
	}
	for i := len(units)/2 - 1; i >= 0; i-- {
		siftDown(units, i)
	}
	return units
}

// siftDown restores the min-heap below i.
func siftDown(h []pageUnit, i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c].less(&h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
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

	// ordered marks a bounded scan visiting units, a min-heap of the
	// pages left; otherwise ti is the next task in range order.
	ordered bool
	units   []pageUnit
	ti      int
	// it is the open iterator, one of iters (unfiltered, filtered),
	// each created once and Reset onto every range of its kind.
	it        *table.Iter
	iters     [2]*table.Iter
	row       table.RowID
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

// RowID returns the table position of the row the last successful Next
// positioned on: under a bound rows arrive best page first, and the
// position is what ranks rows tied on key and ObjID.
func (s *RowStream) RowID() table.RowID { return s.row }

// Err returns the first error the stream hit, including context
// cancellation. Nil after a clean drain.
func (s *RowStream) Err() error { return s.err }

// Next advances to the next matching row: in range order, or under a
// bound best page first. False means exhaustion, error, stop-bound
// reached, or cancellation.
func (s *RowStream) Next() bool {
	if s.closed || s.err != nil || s.remaining == 0 {
		return false
	}
	for {
		if s.it == nil && !s.open() {
			return false
		}
		if s.it.Next(&s.buf) {
			if s.remaining > 0 {
				s.remaining--
			}
			s.rec, s.row = &s.buf, s.it.Row()
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

// open positions an iterator on the next range to scan: the next task,
// or under a bound the best page left. A bounded scan ends at the first
// page whose best key is worse than τ: every page left keys no better,
// so each counts as skipped unread.
func (s *RowStream) open() bool {
	var t ScanTask
	if s.ordered {
		if len(s.units) == 0 {
			return false
		}
		u := s.units[0]
		if tau, ok := s.bound.Tau(); ok && u.best > tau {
			s.zc.PagesSkipped.Add(int64(len(s.units)))
			s.units = s.units[:0]
			return false
		}
		last := len(s.units) - 1
		s.units[0] = s.units[last]
		s.units = s.units[:last]
		siftDown(s.units, 0)
		t = s.tasks[u.task]
		pg := table.RowID(u.pg) * table.RecordsPerPage
		t.Lo, t.Hi = max(t.Lo, pg), min(t.Hi, pg+table.RecordsPerPage)
	} else {
		if s.ti >= len(s.tasks) {
			return false
		}
		t = s.tasks[s.ti]
		s.ti++
	}
	kind := 0
	if t.Filter {
		kind = 1
	}
	if s.iters[kind] == nil {
		var pred *table.PagePred
		if t.Filter {
			pred = s.pred
		}
		s.iters[kind] = s.tb.IterRangePred(s.ctx, t.Lo, t.Hi, s.cols, pred, s.bound, &s.zc)
	} else {
		s.iters[kind].Reset(t.Lo, t.Hi)
	}
	s.it = s.iters[kind]
	return true
}

// Close releases the iterators. The stream's counters remain readable.
func (s *RowStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, it := range s.iters {
		if it != nil {
			it.Close()
		}
	}
	s.it = nil
}
