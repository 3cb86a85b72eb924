package core

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"repro/internal/colorsql"
	"repro/internal/kdtree"
	"repro/internal/pagestore"
	"repro/internal/planner"
	"repro/internal/table"
	"repro/internal/vec"
)

// Cursor is the streaming face of every query path: a Volcano-style
// pull iterator whose Stats are exact for this cursor alone —
// whatever pages the cursor's scan actually touched, under its own
// accounting scope, even when it was closed early. The eager
// QueryWhere/QueryUnion/QueryPolyhedron APIs are collect-all
// wrappers over cursors.
//
// A Cursor is single-goroutine. Close is idempotent, stops any
// in-flight page I/O, and must be called unless Next already
// returned false after a full drain (calling it then is still
// safe). Record returns a buffer that may be reused by the next
// Next; copy to retain.
type Cursor interface {
	Next() bool
	Record() *table.Record
	Err() error
	Close() error
	Stats() Report
}

// Collect drains the cursor into a slice — the bridge from the
// streaming API back to the eager one. The returned Report is the
// cursor's final stats.
func Collect(c Cursor) ([]table.Record, Report, error) {
	var out []table.Record
	for c.Next() {
		out = append(out, *c.Record())
	}
	// Close before reading Stats: on a failed parallel stream the
	// workers keep moving the scope counters until Close reaps them.
	c.Close()
	if err := c.Err(); err != nil {
		return nil, c.Stats(), err
	}
	return out, c.Stats(), nil
}

// cursorOpts configures cursor construction.
type cursorOpts struct {
	// cols are the columns decoded into emitted records (filter and
	// order requirements are OR-ed in by the layers that need them).
	cols table.ColumnSet
	// stopAfter >= 0 pushes a row bound into the scan itself: the
	// stream runs serially and stops reading pages at the one holding
	// the last emitted row. -1 means unbounded.
	stopAfter int64
	// pred is a pre-compiled zone-map page predicate for the query's
	// halfspaces; nil makes the pruned-scan path compile its own.
	pred *table.PagePred
	// choice is a pre-computed planner verdict for the query (from
	// the tier-1 plan cache); nil makes PlanAuto consult the planner.
	// Read-only: the cached entry is shared across requests.
	choice *planner.Choice
}

// polyCursor streams one convex polyhedron query: an executor
// RowStream over the chosen access path's candidate ranges, plus the
// per-cursor accounting scope and the planner's verdict.
type polyCursor struct {
	stream  *planner.RowStream
	scope   *pagestore.Scope
	base    Report
	emitted int64
}

func (c *polyCursor) Next() bool {
	if c.stream.Next() {
		c.emitted++
		return true
	}
	return false
}

func (c *polyCursor) Record() *table.Record { return c.stream.Record() }
func (c *polyCursor) Err() error            { return c.stream.Err() }

func (c *polyCursor) Close() error {
	c.stream.Close()
	return nil
}

func (c *polyCursor) Stats() Report {
	r := c.base
	r.RowsReturned = c.emitted
	r.RowsExamined = c.stream.RowsExamined()
	r.PagesSkipped, r.PagesScanned, r.StripsDecoded = c.stream.ZoneStats()
	st := c.scope.Stats()
	r.DiskReads = st.DiskReads
	r.CacheHits = st.Hits
	return r
}

// polyhedronCursor builds the streaming plan for one convex
// polyhedron over a fresh store snapshot, releasing the snapshot's
// file pin when the cursor closes.
func (db *SpatialDB) polyhedronCursor(ctx context.Context, q vec.Polyhedron, plan Plan, opts cursorOpts) (Cursor, error) {
	sn, err := db.snapshot()
	if err != nil {
		return nil, err
	}
	cur, err := db.polyhedronCursorSnap(ctx, sn, q, plan, opts)
	if err != nil {
		sn.release()
		return nil, err
	}
	return &snapCursor{Cursor: cur, sn: sn}, nil
}

// polyhedronCursorSnap builds the streaming plan for one convex
// polyhedron against an already-captured snapshot: resolve the access
// path (PlanAuto consults the cost-based planner, reusing its kd
// classification), collect the candidate ranges without table I/O,
// open a RowStream over them under a fresh accounting scope, and
// chain the snapshot's memtable rows after the paged rows — the same
// physical order a compaction would produce. The caller owns the
// snapshot's release.
func (db *SpatialDB) polyhedronCursorSnap(ctx context.Context, sn *dbSnap, q vec.Polyhedron, plan Plan, opts cursorOpts) (Cursor, error) {
	pl := sn.planner()
	catalog, kd, kdTable, vor := pl.Catalog, pl.Kd, pl.KdTable, pl.Vor
	resolved := plan
	var est float64
	var why string
	choice := opts.choice
	if plan == PlanAuto {
		if choice == nil {
			ch := pl.Plan(q)
			choice = &ch
		}
		est, why = choice.Est.Selectivity, choice.Reason
		switch choice.Path {
		case planner.PathKdTree:
			resolved = PlanKdTree
		case planner.PathVoronoi:
			resolved = PlanVoronoi
		case planner.PathPrunedScan:
			resolved = PlanPrunedScan
		default:
			resolved = PlanFullScan
		}
	}

	var tb *table.Table
	var tasks []planner.ScanTask
	var pred *table.PagePred
	scope := db.eng.Store().Scoped()
	switch resolved {
	case PlanKdTree:
		if kd == nil {
			return nil, fmt.Errorf("core: kd-tree index not built")
		}
		var ranges []kdtree.Range
		if choice != nil && choice.KdRanges != nil {
			// Reuse the classification the planner already ran. The
			// cached ranges cover the indexed prefix only and are shared
			// read-only, so the unindexed tail goes into tasks, never
			// appended onto the cached slice.
			ranges = choice.KdRanges
		} else {
			ranges, _ = kd.CollectRanges(q, kdtree.PruneTightBounds)
		}
		rows := kdTable.NumRows()
		tasks = make([]planner.ScanTask, 0, len(ranges)+1)
		for _, r := range ranges {
			tasks = append(tasks, planner.ScanTask{Lo: r.Lo, Hi: r.Hi, Filter: r.Filter})
		}
		if rows > kd.NumRows {
			// Minor compactions appended rows past the tree's coverage;
			// they are unclassified, so filter them like a partial leaf.
			tasks = append(tasks, planner.ScanTask{Lo: table.RowID(kd.NumRows), Hi: table.RowID(rows), Filter: true})
		}
		tb = kdTable.Scoped(scope)
	case PlanVoronoi:
		if vor == nil {
			return nil, fmt.Errorf("core: voronoi index not built")
		}
		// Bound by the snapshot view, not the live directory table: the
		// bounded collector covers the compaction-appended tail.
		ranges, _ := vor.CollectRangesBounded(q, sn.vorTable.NumRows())
		tasks = make([]planner.ScanTask, len(ranges))
		for i, r := range ranges {
			tasks[i] = planner.ScanTask{Lo: r.Lo, Hi: r.Hi, Filter: r.Filter}
		}
		tb = sn.vorTable.Scoped(scope)
	case PlanFullScan:
		rows := table.RowID(catalog.NumRows())
		if opts.stopAfter >= 0 {
			// The serial fast path walks one contiguous range and stops
			// exactly at the n-th match; chunking would buy nothing.
			tasks = []planner.ScanTask{{Lo: 0, Hi: rows, Filter: true}}
		} else {
			tasks = db.exec.FullScanTasks(rows)
		}
		// Scan-class, like the eager full scan: an unselective stream
		// must not flush the pool's hot set.
		tb = catalog.Scoped(scope).ScanClassed()
	case PlanPrunedScan:
		src := pl.PrunedScanSource()
		if src == nil {
			return nil, fmt.Errorf("core: pruned scan requires a table with zone maps (rebuild or reingest the catalog)")
		}
		pred = opts.pred
		if pred == nil {
			p, err := table.CompilePagePred(q.Planes)
			if err != nil {
				return nil, fmt.Errorf("core: pruned scan: %w", err)
			}
			pred = p
		}
		rows := table.RowID(src.NumRows())
		if opts.stopAfter >= 0 {
			// Single contiguous range keeps the stop exact; the iterator
			// still zone-skips page by page inside it.
			tasks = []planner.ScanTask{{Lo: 0, Hi: rows, Filter: true}}
		} else {
			tasks = db.exec.FullScanTasks(rows)
		}
		// Sequential like a full scan, so it takes the scan class too:
		// a mostly-pruned pass must not evict the hot set either.
		tb = src.Scoped(scope).ScanClassed()
	default:
		return nil, fmt.Errorf("core: unknown plan %v", plan)
	}
	stream := db.exec.Stream(tb, q, tasks, planner.StreamOpts{
		Ctx:       ctx,
		Cols:      opts.cols,
		StopAfter: opts.stopAfter,
		Pred:      pred,
	})
	paged := &polyCursor{
		stream: stream,
		scope:  scope,
		base:   Report{Plan: resolved, EstimatedSelectivity: est, PlanReason: why},
	}
	if len(sn.mem) == 0 {
		return paged, nil
	}
	return &chainCursor{
		base: paged,
		mem:  &memCursor{rows: sn.mem, filter: polyMemFilter(q), cols: opts.cols},
	}, nil
}

// unionCursor streams a DNF union clause by clause, deduplicating
// across clauses by object identity exactly like the eager
// QueryUnion: a row is emitted the first time its ObjID appears. A
// single clause visits each physical row once and nothing can repeat,
// so it keeps no seen set and emits every matching row — rows are
// never merged, two rows sharing an ObjID both come back. Clause
// cursors are built lazily, so an early Close never plans or scans
// the remaining clauses. All clauses share one store snapshot,
// captured at construction — a compaction between clauses cannot
// make the union see a row twice (paged in one clause, memtable in
// another) or miss it.
type unionCursor struct {
	db    *SpatialDB
	ctx   context.Context
	sn    *dbSnap
	polys []vec.Polyhedron
	// preds, when non-nil, holds one pre-compiled page predicate per
	// clause (same indexing as polys) for zone-map pruning; choices,
	// when non-nil, the cached planner verdict per clause. Both come
	// from the tier-1 plan cache and are shared read-only.
	preds   []*table.PagePred
	choices []planner.Choice
	plan    Plan
	opts    cursorOpts

	idx     int
	cur     Cursor
	seen    map[int64]bool // nil for a single clause: nothing to dedup
	agg     Report
	emitted int64
	err     error
	closed  bool
}

func (db *SpatialDB) newUnionCursor(ctx context.Context, u colorsql.Union, plan Plan, opts cursorOpts) *unionCursor {
	var seen map[int64]bool
	if len(u.Polys) > 1 {
		// Dedup needs the object identity decoded whatever the
		// projection asked for.
		opts.cols |= table.ColObjID
		seen = make(map[int64]bool)
	}
	// The tier-1 plan cache holds (or builds) the per-clause planner
	// verdicts and pre-compiled zone-map predicates for this union's
	// canonical text. A union that cannot plan (no catalog) just
	// carries nothing — the clause cursor surfaces the real error.
	var preds []*table.PagePred
	var choices []planner.Choice
	if up, err := db.unionPlanFor(u); err == nil {
		preds, choices = up.preds, up.choices
	}
	c := &unionCursor{
		db: db, ctx: ctx, polys: u.Polys, preds: preds, choices: choices,
		plan: plan, opts: opts, seen: seen,
	}
	// One snapshot for every clause; a snapshot failure (no catalog)
	// surfaces on the first Next like any clause error would.
	c.sn, c.err = db.snapshot()
	return c
}

func (c *unionCursor) Next() bool {
	if c.closed || c.err != nil {
		return false
	}
	for {
		if c.cur == nil {
			if c.idx >= len(c.polys) {
				return false
			}
			opts := c.opts
			if c.preds != nil {
				opts.pred = c.preds[c.idx]
			}
			if c.choices != nil {
				opts.choice = &c.choices[c.idx]
			}
			cur, err := c.db.polyhedronCursorSnap(c.ctx, c.sn, c.polys[c.idx], c.plan, opts)
			if err != nil {
				c.err = err
				return false
			}
			c.idx++
			c.cur = cur
		}
		for c.cur.Next() {
			if c.seen != nil {
				id := c.cur.Record().ObjID
				if c.seen[id] {
					continue
				}
				c.seen[id] = true
			}
			c.emitted++
			return true
		}
		if err := c.cur.Err(); err != nil {
			c.err = err
			c.foldCurrent()
			return false
		}
		c.foldCurrent()
	}
}

// foldCurrent closes the current clause cursor and merges its final
// stats into the union aggregate (legacy QueryUnion semantics).
// Close-before-Stats matters: an early-terminated parallel stream
// still has workers moving the scope counters until Close reaps
// them, and the cursor contract keeps Stats readable after Close.
func (c *unionCursor) foldCurrent() {
	c.cur.Close()
	mergeReport(&c.agg, c.cur.Stats())
	c.cur = nil
}

func (c *unionCursor) Record() *table.Record {
	if c.cur == nil {
		return nil
	}
	return c.cur.Record()
}

func (c *unionCursor) Err() error { return c.err }

func (c *unionCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.cur != nil {
		c.foldCurrent()
	}
	if c.sn != nil {
		c.sn.release()
	}
	return nil
}

func (c *unionCursor) Stats() Report {
	r := c.agg
	if c.cur != nil {
		mergeReport(&r, c.cur.Stats())
	}
	r.RowsReturned = c.emitted
	return r
}

// mergeReport folds one clause report into a union total: row and
// page counters sum, EstimatedSelectivity is the clamped sum (an
// upper bound ignoring overlap), Plan is the last clause's, and
// PlanReason joins the per-clause reasons.
func mergeReport(total *Report, rep Report) {
	total.Plan = rep.Plan
	total.EstimatedSelectivity += rep.EstimatedSelectivity
	if total.EstimatedSelectivity > 1 {
		total.EstimatedSelectivity = 1
	}
	if total.PlanReason == "" {
		total.PlanReason = rep.PlanReason
	} else if rep.PlanReason != "" {
		total.PlanReason += " | " + rep.PlanReason
	}
	total.RowsExamined += rep.RowsExamined
	total.DiskReads += rep.DiskReads
	total.CacheHits += rep.CacheHits
	total.PagesSkipped += rep.PagesSkipped
	total.PagesScanned += rep.PagesScanned
	total.StripsDecoded += rep.StripsDecoded
	total.LeavesExamined += rep.LeavesExamined
	total.FitFallbacks += rep.FitFallbacks
}

// limitCursor truncates its child after n rows, closing it as soon
// as the bound is reached so any remaining page I/O stops. When the
// bound was also pushed into the scan (convex fast path) the child
// simply runs dry first and the wrapper never truncates.
type limitCursor struct {
	child   Cursor
	n       int64
	emitted int64
	done    bool
	final   Report
}

func (c *limitCursor) finish() {
	if !c.done {
		c.done = true
		// Close first: a truncated parallel scan's workers keep moving
		// the scope counters until Close reaps them, and Stats must be
		// exact and final.
		c.child.Close()
		c.final = c.child.Stats()
		c.final.RowsReturned = c.emitted
	}
}

func (c *limitCursor) Next() bool {
	if c.done {
		return false
	}
	if c.emitted >= c.n || !c.child.Next() {
		c.finish()
		return false
	}
	c.emitted++
	return true
}

func (c *limitCursor) Record() *table.Record { return c.child.Record() }
func (c *limitCursor) Err() error            { return c.child.Err() }

func (c *limitCursor) Close() error {
	c.finish()
	return nil
}

func (c *limitCursor) Stats() Report {
	if c.done {
		return c.final
	}
	r := c.child.Stats()
	r.RowsReturned = c.emitted
	return r
}

// topkItem carries the ordering key plus the arrival sequence that
// breaks ties, making the output deterministic across worker counts.
type topkItem struct {
	key float64
	seq int64
	rec table.Record
}

// topkCursor implements ORDER BY: it drains its child on the first
// Next, keeping either everything (no LIMIT: sort-all) or a bounded
// heap of the best k rows (LIMIT k: top-k, O(k) memory however many
// rows match), then emits in order. The scan cost is unavoidable —
// an ordering must see every matching row — but the memory bound is
// not, which is the point of pushing LIMIT beneath the sort.
type topkCursor struct {
	child Cursor
	key   func(*table.Record) float64
	desc  bool
	limit int // -1 = keep everything

	drained bool
	items   []topkItem
	pos     int
	started bool
	final   Report
	err     error
}

func newTopKCursor(child Cursor, key func(*table.Record) float64, desc bool, limit int) *topkCursor {
	return &topkCursor{child: child, key: key, desc: desc, limit: limit}
}

// worse reports whether a ranks after b in the output order.
func (c *topkCursor) worse(a, b *topkItem) bool {
	if a.key != b.key {
		if c.desc {
			return a.key < b.key
		}
		return a.key > b.key
	}
	return a.seq > b.seq
}

// topkHeap orders the kept set worst-first so the root is the
// eviction candidate.
type topkHeap struct {
	c     *topkCursor
	items []topkItem
}

func (h *topkHeap) Len() int           { return len(h.items) }
func (h *topkHeap) Less(i, j int) bool { return h.c.worse(&h.items[i], &h.items[j]) }
func (h *topkHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topkHeap) Push(x any)         { h.items = append(h.items, x.(topkItem)) }
func (h *topkHeap) Pop() any           { n := len(h.items); x := h.items[n-1]; h.items = h.items[:n-1]; return x }

func (c *topkCursor) drain() {
	c.drained = true
	defer func() {
		// Close before Stats: on the error/cancellation path the
		// child's workers may still be live until Close reaps them.
		c.child.Close()
		c.final = c.child.Stats()
	}()
	var seq int64
	if c.limit < 0 {
		for c.child.Next() {
			rec := c.child.Record()
			c.items = append(c.items, topkItem{key: c.key(rec), seq: seq, rec: *rec})
			seq++
		}
	} else {
		h := &topkHeap{c: c}
		for c.child.Next() {
			rec := c.child.Record()
			it := topkItem{key: c.key(rec), seq: seq, rec: *rec}
			seq++
			if len(h.items) < c.limit {
				heap.Push(h, it)
			} else if c.worse(&h.items[0], &it) {
				h.items[0] = it
				heap.Fix(h, 0)
			}
		}
		c.items = h.items
	}
	if err := c.child.Err(); err != nil {
		c.err = err
		c.items = nil
		return
	}
	sort.Slice(c.items, func(i, j int) bool { return c.worse(&c.items[j], &c.items[i]) })
}

func (c *topkCursor) Next() bool {
	if !c.started {
		c.started = true
		c.drain()
	}
	if c.err != nil || c.pos >= len(c.items) {
		return false
	}
	c.pos++
	return true
}

func (c *topkCursor) Record() *table.Record {
	if c.pos == 0 || c.pos > len(c.items) {
		return nil
	}
	return &c.items[c.pos-1].rec
}

func (c *topkCursor) Err() error { return c.err }

func (c *topkCursor) Close() error {
	if !c.started {
		// Never pulled: release the child before reading its final
		// stats (its prefetch may already have started).
		c.started, c.drained = true, true
		c.child.Close()
		c.final = c.child.Stats()
	}
	return nil
}

func (c *topkCursor) Stats() Report {
	if !c.drained {
		return c.child.Stats()
	}
	r := c.final
	r.RowsReturned = int64(c.pos)
	return r
}

// sliceCursor serves pre-materialized rows (the kNN reuse path and
// the LIMIT 0 short-circuit) through the Cursor interface.
type sliceCursor struct {
	recs []table.Record
	rep  Report
	pos  int
}

func (c *sliceCursor) Next() bool {
	if c.pos >= len(c.recs) {
		return false
	}
	c.pos++
	return true
}

func (c *sliceCursor) Record() *table.Record {
	if c.pos == 0 || c.pos > len(c.recs) {
		return nil
	}
	return &c.recs[c.pos-1]
}

func (c *sliceCursor) Err() error   { return nil }
func (c *sliceCursor) Close() error { return nil }

func (c *sliceCursor) Stats() Report {
	r := c.rep
	r.RowsReturned = int64(c.pos)
	return r
}

// fullCatalogCursor streams the whole catalog in physical order with
// no predicate — the WHERE-less statement path. Memtable rows follow
// the paged rows unfiltered, in commit order.
func (db *SpatialDB) fullCatalogCursor(ctx context.Context, opts cursorOpts) (Cursor, error) {
	sn, err := db.snapshot()
	if err != nil {
		return nil, err
	}
	scope := db.eng.Store().Scoped()
	rows := table.RowID(sn.catalog.NumRows())
	var tasks []planner.ScanTask
	if opts.stopAfter >= 0 {
		tasks = []planner.ScanTask{{Lo: 0, Hi: rows}}
	} else {
		tasks = db.exec.FullScanTasks(rows)
		for i := range tasks {
			tasks[i].Filter = false
		}
	}
	stream := db.exec.Stream(sn.catalog.Scoped(scope).ScanClassed(), vec.Polyhedron{}, tasks, planner.StreamOpts{
		Ctx:       ctx,
		Cols:      opts.cols,
		StopAfter: opts.stopAfter,
	})
	var cur Cursor = &polyCursor{
		stream: stream,
		scope:  scope,
		base: Report{
			Plan:                 PlanFullScan,
			EstimatedSelectivity: 1,
			PlanReason:           "no predicate: sequential catalog scan",
		},
	}
	if len(sn.mem) > 0 {
		cur = &chainCursor{
			base: cur,
			mem:  &memCursor{rows: sn.mem, cols: opts.cols},
		}
	}
	return &snapCursor{Cursor: cur, sn: sn}, nil
}

// columnSet maps a statement's projection onto the table's partial
// decode bitmask.
func columnSet(cols []colorsql.Column) table.ColumnSet {
	var s table.ColumnSet
	for _, c := range cols {
		switch c.Kind {
		case colorsql.ColMag:
			s |= table.ColMags
		case colorsql.ColObjID:
			s |= table.ColObjID
		case colorsql.ColRa:
			s |= table.ColRa
		case colorsql.ColDec:
			s |= table.ColDec
		case colorsql.ColRedshift:
			s |= table.ColRedshift
		case colorsql.ColClass:
			s |= table.ColClass
		}
	}
	return s
}
