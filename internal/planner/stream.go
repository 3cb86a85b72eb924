package planner

import (
	"context"
	"errors"
	"math"
	"sort"

	"repro/internal/kdtree"
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
// the scan stops at the first page whose best key is worse than it. On
// a kd-clustered table the pages are found by incremental best-first
// browsing of the tree (Hjaltason & Samet, TODS 1999): one min-heap
// holds kd nodes keyed by their tight bounds and pages keyed by their
// zones; a popped node pushes its children that meet the ranges, a
// popped leaf its pages, a popped page is scanned. This is the paper's
// §3.3 search growing its region in steps of kd-boxes, and every kNN —
// ORDER BY dist(p) LIMIT k — runs on it. The caller's context is
// checked at page granularity (via table.Iter), making every query on
// this path cancellable.
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
	// Tree, under a Bound, is the kd-tree tb is clustered on, or nil. The
	// pages then enter the visiting order lazily, best kd node first:
	// the scan's CPU grows with the pages it visits, not with the
	// candidate pages (seed).
	Tree *kdtree.Tree
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
		s.ordered, s.zones = true, zones
		s.seed(opts.Tree)
	}
	return s
}

// walkEntry is one entry of a bounded scan's visiting heap: a page of
// one task, or (task < 0) a kd node not yet expanded. Entries order by
// best key, then by first row, nodes before pages.
type walkEntry struct {
	best float64
	row  table.RowID // the page's first row, or the node's RowLo
	idx  uint32      // page number, or node index
	task int32       // the page's task; -1 for a node
}

func (e *walkEntry) less(f *walkEntry) bool {
	if e.best != f.best {
		return e.best < f.best
	}
	if e.row != f.row {
		return e.row < f.row
	}
	return e.task < f.task
}

// seed fills the visiting heap. On a kd-clustered table it holds the
// root node and the pages of the rows past the tree (the tail minor
// compactions append); every other page enters when the leaf holding
// it is expanded. Without a tree every page enters up front, heapified
// in O(n). The tasks are left untouched: a cached plan's ranges are
// shared between statements.
func (s *RowStream) seed(tree *kdtree.Tree) {
	const rpp = table.RecordsPerPage
	for _, t := range s.tasks {
		if t.Lo < t.Hi {
			s.left += int64((t.Hi-1)/rpp - t.Lo/rpp + 1)
		}
	}
	if tree == nil {
		s.heap = make([]walkEntry, 0, s.left)
		s.pushPages(0, table.RowID(math.MaxUint64))
		for i := len(s.heap)/2 - 1; i >= 0; i-- {
			siftDown(s.heap, i)
		}
		return
	}
	s.tree = tree
	if n := len(s.tasks); n > 0 {
		s.seen = make([]uint64, (s.tasks[n-1].Hi/rpp+64)/64)
	}
	if root := &tree.Nodes[0]; s.seen != nil && s.meets(root.RowLo, root.RowHi) {
		s.push(walkEntry{best: s.bound.BoxBest(root.Bounds), row: root.RowLo, task: -1})
	}
	s.pushPages(table.RowID(tree.NumRows), table.RowID(math.MaxUint64))
}

// firstTask returns the index of the first task ending past row lo.
func (s *RowStream) firstTask(lo table.RowID) int {
	return sort.Search(len(s.tasks), func(i int) bool { return s.tasks[i].Hi > lo })
}

// meets reports whether rows [lo, hi) overlap any task.
func (s *RowStream) meets(lo, hi table.RowID) bool {
	i := s.firstTask(lo)
	return lo < hi && i < len(s.tasks) && s.tasks[i].Lo < hi
}

// pushPages pushes every page of rows [lo, hi) ∩ tasks not pushed yet,
// keyed by its zone. Tasks are page-aligned, so a page belongs to one
// task; a page a leaf shares with another is pushed once, by whichever
// expands first.
func (s *RowStream) pushPages(lo, hi table.RowID) {
	const rpp = table.RecordsPerPage
	for i := s.firstTask(lo); i < len(s.tasks) && s.tasks[i].Lo < hi; i++ {
		t := s.tasks[i]
		plo, phi := max(t.Lo, lo), min(t.Hi, hi)
		if plo >= phi {
			continue
		}
		s.bound.PageBests(s.zones, int(plo/rpp), int((phi-1)/rpp)+1, func(pg int, best float64) {
			if s.tree != nil {
				if w, bit := pg/64, uint64(1)<<(pg%64); s.seen[w]&bit == 0 {
					s.seen[w] |= bit
				} else {
					return
				}
			}
			e := walkEntry{best: best, row: table.RowID(pg) * rpp, idx: uint32(pg), task: int32(i)}
			if s.tree == nil {
				s.heap = append(s.heap, e) // heapified once seeded
			} else {
				s.push(e)
			}
		})
	}
}

// expand replaces a popped node by its children that meet the tasks,
// keyed by their tight bounds, or a popped leaf by its pages.
func (s *RowStream) expand(idx uint32) {
	n := &s.tree.Nodes[idx]
	if n.IsLeaf() {
		s.leaves++
		s.pushPages(n.RowLo, n.RowHi)
		return
	}
	for _, c := range [2]int32{n.Left, n.Right} {
		if ch := &s.tree.Nodes[c]; s.meets(ch.RowLo, ch.RowHi) {
			s.push(walkEntry{best: s.bound.BoxBest(ch.Bounds), row: ch.RowLo, idx: uint32(c), task: -1})
		}
	}
}

// push adds e to the visiting heap.
func (s *RowStream) push(e walkEntry) {
	s.heap = append(s.heap, e)
	h := s.heap
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].less(&h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the min-heap below i.
func siftDown(h []walkEntry, i int) {
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

	// ordered marks a bounded scan visiting heap, a min-heap of the
	// pages and kd nodes left (seed); otherwise ti is the next task in
	// range order. left counts the candidate pages not yet popped, seen
	// the pages pushed, leaves the leaves expanded.
	ordered bool
	zones   *table.ZoneMaps
	tree    *kdtree.Tree
	heap    []walkEntry
	seen    []uint64
	left    int64
	leaves  int64
	ti      int
	// it is the open iterator, one of iters (unfiltered, filtered),
	// each created once and Reset onto every range of its kind.
	it        *table.Iter
	iters     [2]*table.Iter
	row       table.RowID
	buf       table.Record
	remaining int64 // StopAfter countdown; -1 = unbounded
}

// LeavesExpanded returns the kd leaves a bounded walk has expanded.
func (s *RowStream) LeavesExpanded() int64 { return s.leaves }

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
// or under a bound the best page left, expanding the kd nodes popped
// before it. A bounded scan ends at the first entry whose best key is
// worse than τ: every page left — in the heap or under a node in it —
// keys no better, so each counts as skipped unread.
func (s *RowStream) open() bool {
	var t ScanTask
	if s.ordered {
		for {
			if len(s.heap) == 0 {
				return false
			}
			e := s.heap[0]
			if tau, ok := s.bound.Tau(); ok && e.best > tau {
				s.zc.PagesSkipped.Add(s.left)
				s.left, s.heap = 0, s.heap[:0]
				return false
			}
			last := len(s.heap) - 1
			s.heap[0] = s.heap[last]
			s.heap = s.heap[:last]
			siftDown(s.heap, 0)
			if e.task < 0 {
				s.expand(e.idx)
				continue
			}
			s.left--
			t = s.tasks[e.task]
			t.Lo, t.Hi = max(t.Lo, e.row), min(t.Hi, e.row+table.RecordsPerPage)
			break
		}
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
