package core

import (
	"context"
	"fmt"
	"slices"

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
	// stream stops reading pages at the one holding the last emitted
	// row. -1 means unbounded.
	stopAfter int64
	// choice is a pre-computed planner verdict for the query (from
	// the tier-1 plan cache); nil makes the cursor consult the planner.
	// Read-only: the cached entry is shared across requests.
	choice *planner.Choice
	// bound, when non-nil, is the key bound of an ordered LIMIT: the
	// topkCursor above the scan tightens it, the scan prunes by it.
	bound *table.KeyBound
}

// polyCursor streams one statement's paged rows — the polyhedra of its
// WHERE, or the whole catalog: an executor RowStream over the chosen
// access path's candidate ranges, plus the per-cursor accounting scope
// and the planner's verdict.
type polyCursor struct {
	stream *planner.RowStream
	scope  *pagestore.Scope
	// base carries the plan's identity and its share of PagesSkipped:
	// pages no range of the index scan covers.
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
func (c *polyCursor) rowPos() int64         { return int64(c.stream.RowID()) }

func (c *polyCursor) Close() error {
	c.stream.Close()
	return nil
}

func (c *polyCursor) Stats() Report {
	r := c.base
	r.RowsReturned = c.emitted
	r.RowsExamined = c.stream.RowsExamined()
	skipped, scanned, strips := c.stream.ZoneStats()
	r.PagesSkipped, r.PagesScanned, r.StripsDecoded = r.PagesSkipped+skipped, scanned, strips
	r.LeavesExamined = c.stream.LeavesExpanded()
	st := c.scope.Stats()
	r.DiskReads = st.DiskReads
	r.CacheHits = st.Hits
	return r
}

// whereCursor opens the one stream that answers a WHERE — every clause
// of its DNF at once — over a fresh store snapshot, releasing the
// snapshot's file pin when the cursor closes. Under PlanAuto the
// planner's verdict comes from the tier-1 plan cache, looked up after
// the snapshot is taken: a cached choice is then never older than the
// snapshot it runs against, and one planned over a newer clustering is
// recognised by its tree (whereCursorSnap). The caller has validated
// plan.
func (db *SpatialDB) whereCursor(ctx context.Context, u colorsql.Union, plan Plan, opts cursorOpts) (Cursor, error) {
	sn, err := db.snapshot()
	if err != nil {
		return nil, err
	}
	// A forced full scan never consults the planner.
	if plan == PlanAuto {
		if opts.choice, err = db.planFor(u); err != nil {
			sn.release()
			return nil, err
		}
	}
	cur, err := db.whereCursorSnap(ctx, sn, u.Polys, plan, opts)
	if err != nil {
		sn.release()
		return nil, err
	}
	return &snapCursor{Cursor: cur, sn: sn}, nil
}

// whereCursorSnap builds the streaming plan for a WHERE's clauses
// against an already-captured snapshot: take the index scan's ranges
// from the planner (a cached plan is reused only when it was planned
// over the snapshot's own kd-tree) — or, under a forced PlanFullScan,
// every page in table order — open one RowStream over the ranges
// under one accounting scope, and chain the snapshot's memtable rows
// after the paged rows — the same physical order a compaction would
// produce. Every path classifies the clause set as a whole (Outside
// every clause prunes, Inside any clause streams unfiltered, the rest
// is filtered against the disjunction), so the ranges are disjoint and
// ascending and each physical row is met once, in table order: rows
// are never merged, whatever their ObjIDs.
// The caller owns the snapshot's release.
func (db *SpatialDB) whereCursorSnap(ctx context.Context, sn *dbSnap, clauses []vec.Polyhedron, plan Plan, opts cursorOpts) (Cursor, error) {
	pred, err := table.CompilePagePred(clauses)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var base Report
	var tb *table.Table
	var tasks []planner.ScanTask
	scope := db.eng.Store().Scoped()
	if plan == PlanFullScan {
		tasks = []planner.ScanTask{{Lo: 0, Hi: table.RowID(sn.catalog.NumRows()), Filter: true}}
		// Every page, zones unconsulted; scan-class so an unselective
		// stream does not flush the pool's hot set.
		tb = sn.catalog.Scoped(scope).ScanClassed().WithoutZones()
		base.Plan = PlanFullScan
	} else {
		choice := opts.choice
		if choice == nil || choice.Tree != sn.kd {
			// No cached plan, or one whose ranges address another
			// clustering (an index build or full compaction swapped the
			// tree since it was planned): plan against the snapshot.
			ch, err := sn.planner().Plan(clauses)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			choice = &ch
		}
		base.EstimatedSelectivity, base.PlanReason = choice.Est.Selectivity, choice.Reason
		// The cached ranges are shared read-only. One ascending pass
		// over one file, mostly skipped: scan-class, so it cannot evict
		// the pool's hot set.
		tasks, base.PagesSkipped = choice.Ranges, int64(choice.PagesPruned)
		tb = sn.catalog.Scoped(scope).ScanClassed()
		base.Plan = PlanKdTree
		if sn.kd == nil {
			// On a store without a tree the index scan is zone pruning
			// alone, and is reported as such.
			base.Plan = PlanPrunedScan
		}
	}
	paged := &polyCursor{
		stream: planner.Stream(tb, tasks, planner.StreamOpts{
			Ctx:       ctx,
			Cols:      opts.cols,
			StopAfter: opts.stopAfter,
			Pred:      pred,
			Bound:     opts.bound,
			Tree:      sn.kd,
		}),
		scope: scope,
		base:  base,
	}
	if len(sn.mem) == 0 {
		return paged, nil
	}
	return &chainCursor{
		base: paged,
		mem:  &memCursor{rows: sn.mem, filter: whereMemFilter(clauses), cols: opts.cols, bound: opts.bound, first: int64(sn.catalog.NumRows())},
	}, nil
}

// limitCursor truncates its child after n rows, closing it as soon
// as the bound is reached so any remaining page I/O stops. When the
// bound was also pushed into the scan the paged child simply runs dry
// first, and the wrapper truncates only the memtable rows chained after
// it.
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
		// Close first so no page I/O follows the bound.
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

// rowCursor is a cursor that knows where its current row sits in the
// store's one physical order: a paged row at its RowID, a memtable row
// past every paged row in commit order — where a compaction moves it.
// An ordered statement ranks rows tied on key and ObjID by it, so its
// answer does not depend on the order the scan visits pages in.
type rowCursor interface {
	Cursor
	rowPos() int64
}

// topkEntry ranks one kept row: the ordering key — negated under DESC,
// so that a smaller key always ranks first — then the ObjID, then the
// row's physical position, and the slab slot holding its record. The
// first two are properties of the row, so the order of an answer does
// not depend on how its rows are clustered: a differently clustered
// store, or a cluster's merge (shard/merge.go breaks ties the same
// way), emits the same bytes.
type topkEntry struct {
	key   float64
	objID int64
	pos   int64
	slot  int
}

// topkCursor implements ORDER BY: it drains its child on the first
// Next, keeping either everything (no LIMIT: sort-all) or a bounded
// heap of the best k rows (LIMIT k: top-k, O(k) memory however many
// rows match), then emits in order. Records live in a slab, one slot
// per kept row, and the heap orders compact entries naming the slots:
// an admission copies its record once, into the slot of the row it
// evicts. Once the heap is full its root key is a proven bound — a row
// keying strictly after it can never be emitted — and every change of
// it is published to bound, which the scan beneath visits pages by and
// prunes pages and rows by (table.KeyBound): an ordered LIMIT stops
// reading what cannot enter it.
type topkCursor struct {
	child rowCursor
	key   func(*table.Record) float64
	limit int // -1 = keep everything
	// bound is nil when nothing is pushed down (no LIMIT).
	bound *table.KeyBound
	// hideID clears the ObjID of emitted rows: the statement did not
	// project it, it was decoded for the tie-break alone, and an answer
	// carries no column it was not asked for.
	hideID bool

	drained bool
	slab    []table.Record
	heap    []topkEntry // LIMIT k: worst kept row at the root
	pos     int
	started bool
	final   Report
	err     error
}

// worse reports whether a ranks after b in the output order.
func worse(a, b *topkEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	if a.objID != b.objID {
		return a.objID > b.objID
	}
	return a.pos > b.pos
}

// siftUp and siftDown keep c.heap ordered worst-first, so the root is
// the eviction candidate.
func (c *topkCursor) siftUp(i int) {
	h := c.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(&h[i], &h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (c *topkCursor) siftDown(i int) {
	h := c.heap
	e := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && worse(&h[r], &h[child]) {
			child = r
		}
		if !worse(&h[child], &e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// keep appends the current row to the slab and its entry to the heap.
func (c *topkCursor) keep(rec *table.Record, key float64) {
	c.heap = append(c.heap, topkEntry{key: key, objID: rec.ObjID, pos: c.child.rowPos(), slot: len(c.slab)})
	c.slab = append(c.slab, *rec)
}

// offer ranks the current row against the kept k: a row keying
// strictly after the full heap's root is dropped before its position
// is asked or its record copied.
func (c *topkCursor) offer(rec *table.Record) {
	key := c.key(rec)
	if len(c.heap) < c.limit {
		c.keep(rec, key)
		c.siftUp(len(c.heap) - 1)
		if len(c.heap) < c.limit {
			return
		}
	} else {
		root := &c.heap[0]
		if key > root.key {
			return
		}
		e := topkEntry{key: key, objID: rec.ObjID, pos: c.child.rowPos(), slot: root.slot}
		if !worse(root, &e) {
			return
		}
		c.slab[e.slot] = *rec
		*root = e
		c.siftDown(0)
	}
	if c.bound != nil {
		c.bound.Tighten(c.heap[0].key)
	}
}

// topkPrealloc caps the rows an ordered LIMIT reserves room for before
// its first row: a kNN's k up to it fills without regrowing.
const topkPrealloc = 1024

func (c *topkCursor) drain() {
	c.drained = true
	if c.limit > 0 {
		n := min(c.limit, topkPrealloc)
		c.slab, c.heap = make([]table.Record, 0, n), make([]topkEntry, 0, n)
	}
	defer func() {
		c.child.Close()
		c.final = c.child.Stats()
	}()
	for c.child.Next() {
		if rec := c.child.Record(); c.limit < 0 {
			c.keep(rec, c.key(rec))
		} else {
			c.offer(rec)
		}
	}
	if err := c.child.Err(); err != nil {
		c.err = err
		c.heap, c.slab = nil, nil
		return
	}
	slices.SortFunc(c.heap, func(a, b topkEntry) int {
		if worse(&b, &a) {
			return -1
		}
		if worse(&a, &b) {
			return 1
		}
		return 0
	})
	if c.hideID {
		for i := range c.slab {
			c.slab[i].ObjID = 0
		}
	}
}

func (c *topkCursor) Next() bool {
	if !c.started {
		c.started = true
		c.drain()
	}
	if c.err != nil || c.pos >= len(c.heap) {
		return false
	}
	c.pos++
	return true
}

func (c *topkCursor) Record() *table.Record {
	if c.pos == 0 || c.pos > len(c.heap) {
		return nil
	}
	return &c.slab[c.heap[c.pos-1].slot]
}

func (c *topkCursor) Err() error { return c.err }

func (c *topkCursor) Close() error {
	if !c.started {
		// Never pulled: release the child and freeze its stats, which
		// Stats reports from then on.
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

// SliceCursor serves pre-materialized rows through the Cursor
// interface, rep's RowsReturned replaced by the rows emitted: the kNN
// path, cached answers, the LIMIT 0 short-circuit, and a cluster's
// eagerly merged answers.
func SliceCursor(recs []table.Record, rep Report) Cursor {
	return &sliceCursor{recs: recs, rep: rep}
}

// Limit truncates cur after n rows (limitCursor).
func Limit(cur Cursor, n int) Cursor { return &limitCursor{child: cur, n: int64(n)} }

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
// no predicate — the WHERE-less statement path — on a snapshot of its
// own.
func (db *SpatialDB) fullCatalogCursor(ctx context.Context, opts cursorOpts) (Cursor, error) {
	sn, err := db.snapshot()
	if err != nil {
		return nil, err
	}
	return &snapCursor{Cursor: sn.catalogCursor(ctx, opts), sn: sn}, nil
}

// referenceStatementCursor streams the photo-z reference rows on a
// snapshot of its own: FROM reference.
func (db *SpatialDB) referenceStatementCursor(ctx context.Context, opts cursorOpts) (Cursor, error) {
	sn, err := db.snapshot()
	if err != nil {
		return nil, err
	}
	if sn.photoZ == nil {
		sn.release()
		return nil, errNoPhotoZ
	}
	return &snapCursor{Cursor: sn.referenceCursor(ctx, opts), sn: sn}, nil
}

// catalogCursor streams the snapshot's catalog, the memtable rows after
// the paged rows unfiltered, in commit order: in physical order, or
// under an ordered LIMIT's bound best page first — best kd node first
// when a tree is built (planner.Stream). The caller keeps the snapshot
// until the cursor is closed.
func (sn *dbSnap) catalogCursor(ctx context.Context, opts cursorOpts) Cursor {
	base := Report{Plan: PlanFullScan, EstimatedSelectivity: 1, PlanReason: "no predicate: sequential catalog scan"}
	if opts.bound != nil && sn.kd != nil {
		// The walk runs no estimator: it reads what its k-th key admits.
		base = Report{Plan: PlanKdTree, PlanReason: "no predicate: kd-tree best node first under the k-th key"}
	}
	cur := sn.tableCursor(ctx, sn.catalog, sn.kd, opts, base)
	if len(sn.mem) == 0 {
		return cur
	}
	return &chainCursor{
		base: cur,
		mem:  &memCursor{rows: sn.mem, cols: opts.cols, bound: opts.bound, first: int64(sn.catalog.NumRows())},
	}
}

// referenceCursor streams the photo-z reference rows — FROM reference,
// which is always a kNN — best node of the reference's own tree first.
// The reference has no memtable rows: a spectroscopic row joins it at
// compaction. The snapshot must hold an estimator.
func (sn *dbSnap) referenceCursor(ctx context.Context, opts cursorOpts) Cursor {
	pz := sn.photoZ
	return sn.tableCursor(ctx, pz.Table, pz.Tree, opts, Report{Plan: PlanKdTree, PlanReason: "photo-z reference kNN"})
}

// tableCursor streams every row of tb under its own accounting scope,
// scan-classed so a long stream cannot evict the pool's hot set —
// unless a key bound walks tb's tree, an index-driven read of the few
// pages its k-th key admits, which stay in the pool like any index read.
func (sn *dbSnap) tableCursor(ctx context.Context, tb *table.Table, tree *kdtree.Tree, opts cursorOpts, base Report) *polyCursor {
	scope := sn.db.eng.Store().Scoped()
	tasks := []planner.ScanTask{{Lo: 0, Hi: table.RowID(tb.NumRows())}}
	if tb = tb.Scoped(scope); opts.bound == nil || tree == nil {
		tb = tb.ScanClassed()
	}
	return &polyCursor{
		stream: planner.Stream(tb, tasks, planner.StreamOpts{
			Ctx:       ctx,
			Cols:      opts.cols,
			StopAfter: opts.stopAfter,
			Bound:     opts.bound,
			Tree:      tree,
		}),
		scope: scope,
		base:  base,
	}
}

// ColumnSet maps a statement's projection onto the table's partial
// decode bitmask.
func ColumnSet(cols []colorsql.Column) table.ColumnSet {
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
