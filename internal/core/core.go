// Package core assembles the paper's serving system (Figure 3): a
// magnitude table inside a database engine, the two spatial indexes
// the server keeps over it — layered uniform grid (§3.1) and kd-tree
// (§3.2) — and the server-side procedures the scientific applications
// call, as typed methods: polyhedron queries, k-nearest-neighbour
// search, adaptive region sampling and photometric redshift
// estimation. As in the paper, the magnitude table is stored once:
// building the kd-tree rewrites it clustered on the tree's leaves, and
// that rewrite is the catalog every read path scans from then on.
// Applications built from those (similarity hulls, the §3.4 Voronoi
// tessellation and the outlier detection and classification over it,
// spectral search) live above this package and call it.
//
// Every read is snapshot → tier-1 plan → [result tier] → stream,
// written once: the eager Query* methods are collect-all over the same
// cursors the server streams.
//
// A WHERE runs one access path, the index scan of internal/planner:
// PlanAuto walks the kd-tree once (zero I/O) and streams the ranges
// that walk yields over the leaf-clustered catalog, each filter range
// pruned page by page by its zones. The paper's Figure 5 trade-off
// (the sequential scan winning once a query is unselective) does not
// arise: the index scan reads a subset of the full scan's pages in the
// same order, so a forced PlanFullScan only ever reads more. Every
// statement, kNN batch and photo-z batch runs on its caller's
// goroutine, so its counters are facts about the statement and the
// data; concurrency comes from serving requests concurrently,
// and SpatialDB is safe for any number of concurrent readers once its
// indexes are built.
//
// SpatialDB is the public API of the reproduction; the examples and
// the experiment harness drive everything through it.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/colorsql"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/memtable"
	"repro/internal/pagestore"
	"repro/internal/photoz"
	"repro/internal/planner"
	"repro/internal/qcache"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// Config configures a SpatialDB instance.
type Config struct {
	// Dir is the directory holding the paged files.
	Dir string
	// PoolPages is the buffer pool size in 8 KiB pages (default 4096
	// = 32 MiB).
	PoolPages int
	// ResultCacheBytes budgets the tier-2 result cache: bounded-LIMIT
	// statement answers (a single-point kNN probe is one) and small
	// photo-z batches are materialized and served from memory, concurrent
	// identical requests sharing one execution (singleflight). 0 (the
	// default) disables result caching — every request executes —
	// because a cached answer deliberately skips execution and callers
	// relying on per-request cost must opt in. The tier-1 plan cache
	// is always on. The budget is fixed for the life of the db and is
	// independent of the buffer pool: cached answers hold no pins.
	ResultCacheBytes int64
}

// Plan names the access path of a query. A caller requests one of two
// values: PlanAuto, or the forced PlanFullScan. Every other value is a
// label a Report carries to say how a query ran; requesting one is an
// error.
type Plan int

// The plans. The numbers are fixed: a shard's summary frame carries
// them.
const (
	// PlanAuto (a request) runs the index scan the planner walks out of
	// the kd-tree (zero I/O) and reports the planner's estimate and
	// price; with no tree the index scan is zone pruning alone.
	PlanAuto Plan = iota
	// PlanFullScan (a request and its label) reads every page of the
	// catalog in table order, zones unconsulted: the baseline the index
	// scan is measured and checked against.
	PlanFullScan
	// PlanKdTree labels the index scan: the kd walk's row ranges over
	// the leaf-clustered table — Outside subtrees never read, Inside
	// subtrees streamed unfiltered, partial leaves and the unindexed
	// tail filtered behind their page zones. It also labels an ordered
	// LIMIT with no WHERE that walks the tree best node first — every
	// kNN on a kd store — and FROM reference.
	PlanKdTree
	// 3 was the forced Voronoi cell scan. The number stays retired so
	// the plans after it keep the values the shard wire carries.
	_
	// PlanGrid labels grid-served sampling queries (SampleRegion).
	PlanGrid
	// PlanPrunedScan labels scans that zone maps alone prune: the
	// sky-box scan, and PlanAuto's index scan on a store with no
	// kd-tree.
	PlanPrunedScan
)

// String names the plan.
func (p Plan) String() string {
	switch p {
	case PlanAuto:
		return "auto"
	case PlanFullScan:
		return "fullscan"
	case PlanKdTree:
		return "kdtree"
	case PlanGrid:
		return "grid"
	case PlanPrunedScan:
		return "pruned-scan"
	}
	return fmt.Sprintf("Plan(%d)", int(p))
}

// Report describes how a query executed. Page counters are exact
// per query even under concurrency: every query runs under its own
// pagestore accounting scope.
type Report struct {
	Plan         Plan
	RowsReturned int64
	RowsExamined int64
	DiskReads    int64
	CacheHits    int64

	// PagesSkipped counts pages proven to hold no row of the answer and
	// never read: pages under kd subtrees the walk classified Outside,
	// pages of filter ranges whose own zone is Outside, and — under an
	// ordered LIMIT, which visits pages best key first and stops at the
	// first page or kd node whose best key ranks strictly after the k-th
	// key — every candidate page not yet visited. PagesScanned counts the page fetches of a
	// polyhedron or sky-box scan — it equals DiskReads + CacheHits;
	// RowsExamined (above) the in-range rows of those fetched pages,
	// tested or not; StripsDecoded the per-column magnitude strips its
	// vectorized filter — predicate and key bound — decoded.
	PagesSkipped  int64
	PagesScanned  int64
	StripsDecoded int64

	// LeavesExamined counts the kd-tree leaves an ordered LIMIT's walk
	// expanded — a kNN's, best node first (zero for scans run in range
	// order).
	LeavesExamined int64
	// FitFallbacks counts photo-z estimates whose local polynomial
	// fit degenerated and fell back to the neighbour mean (zero for
	// everything but redshift estimation).
	FitFallbacks int64

	// EstimatedSelectivity is the planner's pre-execution prediction
	// of returned/total rows. Zero for a forced full scan (the planner
	// did not run).
	EstimatedSelectivity float64
	// PlanReason explains the plan, e.g.
	// "est sel 0.041 (grid-sample); index 58.1".
	PlanReason string

	// FromCache marks an answer served from the statement result
	// cache: this request did no page I/O and examined no rows (the
	// counters above are zero for it), while Plan, selectivity and
	// reason describe the execution that originally filled the entry.
	FromCache bool
}

// Add sums o's work counters into r: the one fold of the reports of an
// answer's parts — a batch's probes, a coordinator's sub-requests.
// RowsReturned and the plan's identity are left to the caller.
func (r *Report) Add(o Report) {
	r.RowsExamined += o.RowsExamined
	r.DiskReads += o.DiskReads
	r.CacheHits += o.CacheHits
	r.PagesSkipped += o.PagesSkipped
	r.PagesScanned += o.PagesScanned
	r.StripsDecoded += o.StripsDecoded
	r.LeavesExamined += o.LeavesExamined
	r.FitFallbacks += o.FitFallbacks
}

// SpatialDB is the assembled system. Index builds serialize behind
// an RW-latch; queries of every kind run concurrently against the
// built state.
type SpatialDB struct {
	eng *engine.DB

	mu      sync.RWMutex
	catalog *table.Table
	sky     *skyIndex // the catalog's sky cell index, built on first use
	domain  vec.Box

	kd *kdtree.Tree

	grid *grid.Index

	photoZ *photoz.Estimator

	// qc is the statement-keyed two-tier cache (see cache.go);
	// planGen counts in-process plan-relevant changes (ingest, index
	// builds) and joins the pagestore epoch in every cache key.
	qc      *qcache.Cache
	planGen atomic.Uint64

	// The online-ingest write path (ingest.go, compact.go). dir is the
	// store directory (where the WAL lives); wal acknowledges insert
	// batches durably; mem holds acknowledged rows until a compaction
	// moves them into the paged tables. compactMu serializes
	// compactions, index builds (rebuildLocked) and Persist; of these,
	// Compact, CompactFull and Persist end in the one commit point
	// (commitLocked). The publish and swap steps additionally take
	// db.mu so readers snapshot atomically.
	dir string
	wal *pagestore.WAL
	mem *memtable.Memtable

	compactMu sync.Mutex
	// gen is the last artifact generation this session wrote files at
	// (nextGenLocked). Guarded by compactMu.
	gen uint64
	// buildParams remembers how each index was built so a full
	// compaction can rebuild it identically (same structure a fresh
	// build of the enlarged catalog would produce). Written only under
	// compactMu.
	buildParams buildParams

	// pins counts, per physical file, the open snapshots that name it
	// (snapshot.go); the commit point unlinks no pinned file.
	pinMu sync.Mutex
	pins  map[string]int

	// compactor background loop lifecycle (StartCompactor).
	compactStop chan struct{}
	compactWG   sync.WaitGroup

	// write-path counters surfaced by IngestStatsSnapshot.
	compactions     atomic.Int64
	fullCompactions atomic.Int64
	compactedRows   atomic.Int64
}

// buildParams records index build parameters for deterministic
// rebuilds at full compaction. Cold-opened databases recover what the
// persisted structures carry (the grid's base and seed, the
// estimator's k and degree); the kd levels asked for are not recorded,
// so a reopened store rebuilds its tree by the √N-leaves rule.
type buildParams struct {
	kdLevels     int
	gridBase     int
	gridSeed     int64
	photoZK      int
	photoZDegree int
}

// Open creates an empty SpatialDB at cfg.Dir.
func Open(cfg Config) (*SpatialDB, error) {
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 4096
	}
	eng, err := engine.Open(cfg.Dir, cfg.PoolPages)
	if err != nil {
		return nil, err
	}
	db := &SpatialDB{
		eng:    eng,
		domain: sky.Domain(),
		dir:    cfg.Dir,
	}
	db.initCache(cfg)
	if err := db.openIngest(); err != nil {
		eng.Close()
		return nil, err
	}
	return db, nil
}

// Close stops the background compactor, closes the write-ahead log,
// and flushes and closes the underlying store. Memtable rows not yet
// compacted stay durable in the WAL and are replayed on the next open.
func (db *SpatialDB) Close() error {
	db.StopCompactor()
	var err error
	if db.wal != nil {
		err = db.wal.Close()
	}
	if cerr := db.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// Engine exposes the underlying database engine (catalog, page store,
// statistics).
func (db *SpatialDB) Engine() *engine.DB { return db.eng }

// Domain returns the 5-D magnitude domain box.
func (db *SpatialDB) Domain() vec.Box { return db.domain.Clone() }

// NumRows returns the catalog size.
func (db *SpatialDB) NumRows() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.catalog == nil {
		return 0
	}
	return db.catalog.NumRows()
}

// IngestSynthetic generates and loads a synthetic SDSS-like catalog.
func (db *SpatialDB) IngestSynthetic(p sky.Params) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.catalog != nil {
		return fmt.Errorf("core: catalog already loaded")
	}
	tb, err := db.eng.CreateTable(catalogTableName)
	if err != nil {
		return err
	}
	if err := sky.GenerateTable(tb, p); err != nil {
		return err
	}
	db.setCatalog(tb)
	db.bumpPlanGen()
	return nil
}

// IngestRecords loads caller-provided records as the catalog.
func (db *SpatialDB) IngestRecords(recs []table.Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.catalog != nil {
		return fmt.Errorf("core: catalog already loaded")
	}
	tb, err := db.eng.CreateTable(catalogTableName)
	if err != nil {
		return err
	}
	if err := tb.AppendAll(recs); err != nil {
		return err
	}
	db.setCatalog(tb)
	db.bumpPlanGen()
	return nil
}

// setCatalog installs tb as the catalog together with a fresh holder
// for its sky cell index. Caller holds db.mu.
func (db *SpatialDB) setCatalog(tb *table.Table) {
	db.catalog, db.sky = tb, &skyIndex{}
}

// Catalog exposes the base table.
func (db *SpatialDB) Catalog() (*table.Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.catalog == nil {
		return nil, fmt.Errorf("core: no catalog loaded")
	}
	return db.catalog, nil
}

// BuildKdIndex builds the §3.2 kd-tree and rewrites the catalog
// clustered on its leaves: that rewrite is the catalog from then on,
// the one copy of the rows. levels <= 0 applies the paper's √N-leaves
// rule. Like every index build it is a rebuild (rebuildLocked): it
// writes at a new artifact generation and swaps the result in, and the
// next commit (Compact, CompactFull or Persist) makes it durable and
// unlinks the superseded table once no open snapshot names it.
func (db *SpatialDB) BuildKdIndex(levels int) error {
	return db.build(func(s *rebuildSpec) { s.kd, s.kdLevels = true, levels })
}

// build runs one index build: a rebuild under the store's recorded
// build parameters, as set changes them.
func (db *SpatialDB) build(set func(*rebuildSpec)) error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	spec := rebuildSpec{buildParams: db.buildParams}
	set(&spec)
	return db.rebuildLocked(spec)
}

// KdTree exposes the built kd-tree (nil before BuildKdIndex).
func (db *SpatialDB) KdTree() *kdtree.Tree {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.kd
}

// BuildGridIndex builds the §3.1 layered uniform grid over the first
// three magnitude axes (the visualization projection) — the grid arm
// of a rebuild, durable at the next commit like BuildKdIndex.
func (db *SpatialDB) BuildGridIndex(base int, seed int64) error {
	return db.build(func(s *rebuildSpec) { s.grid, s.gridBase, s.gridSeed = true, base, seed })
}

// buildGrid builds the layered grid over the first three magnitude
// axes of catalog into the table name; base <= 0 keeps the default.
func buildGrid(catalog *table.Table, name string, domain vec.Box, base int, seed int64) (*grid.Index, error) {
	p := grid.DefaultParams(vec.NewBox(domain.Min[:3], domain.Max[:3]), seed)
	if base > 0 {
		p.Base = base
	}
	return grid.Build(catalog, name, p)
}

// Grid exposes the built grid index (nil before BuildGridIndex).
func (db *SpatialDB) Grid() *grid.Index {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.grid
}

// BuildVoronoiIndex builds nothing: the §3.4 Voronoi tessellation is
// not part of the serving store. Callers that need it build it on
// demand with voronoi.Build over Catalog().
//
// Deprecated: kept only so existing build scripts compile; it fails on
// a store with no catalog, like the index builds, and is otherwise a
// no-op.
func (db *SpatialDB) BuildVoronoiIndex(numSeeds int, seed int64) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.catalog == nil {
		return fmt.Errorf("core: no catalog loaded")
	}
	return nil
}

// BuildPhotoZ prepares the §4.1 redshift estimator from the catalog's
// spectroscopic rows and their kd-clustered reference table, the one
// stored copy of the reference — the photo-z arm of a rebuild, durable
// at the next commit like BuildKdIndex.
func (db *SpatialDB) BuildPhotoZ(k, degree int) error {
	return db.build(func(s *rebuildSpec) { s.photoZ, s.photoZK, s.photoZDegree = true, k, degree })
}

// EstimateRedshift runs the kNN polynomial redshift estimator.
func (db *SpatialDB) EstimateRedshift(mags vec.Point) (float64, error) {
	zs, _, err := db.estimateRedshiftBatchUncached(context.Background(), []vec.Point{mags})
	if err != nil {
		return 0, err
	}
	return zs[0], nil
}

// EstimateRedshiftBatch estimates many objects, each its reference
// kNN statement plus a local fit, and reports the batch's exact
// aggregate cost, including how many local polynomial fits degenerated
// to the neighbour-mean fallback. A done ctx stops the batch and
// returns its error.
func (db *SpatialDB) EstimateRedshiftBatch(ctx context.Context, mags []vec.Point) ([]float64, Report, error) {
	// Small interactive batches cache like point probes; bulk
	// estimation always executes. A cached batch's answer is shared by
	// concurrent identical requests, so no one caller's ctx stops it.
	if key, ok := photoZCacheKey(mags); ok && db.ResultCacheEnabled() {
		return do(db, nsPhotoZ, key, func(zs []float64) int64 { return int64(len(zs)) * 8 }, func() ([]float64, Report, error) {
			return db.estimateRedshiftBatchUncached(context.Background(), mags)
		})
	}
	return db.estimateRedshiftBatchUncached(ctx, mags)
}

// estimateRedshiftBatchUncached is the §4.1 estimator: each probe's
// reference statement — its K nearest reference rows, nearest first —
// then the local fit, so one neighbour set is live at a time however
// large the batch. A done ctx stops the batch mid-statement.
func (db *SpatialDB) estimateRedshiftBatchUncached(ctx context.Context, mags []vec.Point) ([]float64, Report, error) {
	sn, err := db.snapshot()
	if err != nil {
		return nil, Report{}, err
	}
	defer sn.release()
	est := sn.photoZ
	if est == nil {
		return nil, Report{}, errNoPhotoZ
	}
	if err := checkProbes(mags, est.K); err != nil {
		return nil, Report{}, err
	}
	zs := make([]float64, len(mags))
	rep := Report{
		Plan:         PlanKdTree,
		RowsReturned: int64(len(mags)),
		PlanReason:   fmt.Sprintf("photoz batch: %d reference kNN statements, each fitted", len(mags)),
	}
	for i, p := range mags {
		stmt := knnStatement(p, est.K)
		stmt.Reference = true
		nbs, r, err := sn.knnRows(ctx, stmt)
		if err != nil {
			return nil, Report{}, err
		}
		z, fellBack := photoz.Fit(p, nbs, est.Degree)
		if fellBack {
			r.FitFallbacks = 1
		}
		zs[i] = z
		rep.Add(r)
	}
	return zs, rep, nil
}

// errNoPhotoZ refuses photo-z and FROM reference before BuildPhotoZ.
var errNoPhotoZ = errors.New("core: BuildPhotoZ has not been called")

// PhotoZBuilt reports whether the photo-z estimator is available
// (built in this process or loaded from a persisted database).
func (db *SpatialDB) PhotoZBuilt() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.photoZ != nil
}

// BackendStats returns the single store's /stats keys (the serving
// layer merges its own counters over them): page-pool counters, the
// statement cache and the ingest state.
func (db *SpatialDB) BackendStats() map[string]any {
	pages := db.eng.Store().Stats()
	return map[string]any{
		"diskReads":   pages.DiskReads,
		"poolHits":    pages.Hits,
		"pinnedPages": db.eng.Store().PinnedPages(),
		"qcache":      db.CacheStatsSnapshot(),
		"ingest":      db.IngestStatsSnapshot(),
	}
}

// QueryWhere parses a Figure 2-style WHERE clause and executes it
// via QueryUnion, returning matching records.
func (db *SpatialDB) QueryWhere(where string, plan Plan) ([]table.Record, Report, error) {
	u, err := colorsql.Parse(where, colorsql.DefaultVars(), table.Dim)
	if err != nil {
		return nil, Report{}, err
	}
	return db.QueryUnion(u, plan)
}

// QueryUnion executes an already-parsed DNF union of convex
// polyhedra as one query: one walk classifies the index against every
// clause at once, and each physical row that satisfies any clause
// comes back exactly once, in table order — rows are never merged,
// whatever their ObjIDs. Callers that parsed the WHERE clause
// themselves (vizserver validates queries before accepting them) pass
// the union here instead of paying a second parse through QueryWhere.
//
// It is collect-all over the cursor statements stream through, and the
// Report is that one stream's: one plan, one selectivity estimate, one
// PlanReason, exact page counters.
func (db *SpatialDB) QueryUnion(u colorsql.Union, plan Plan) ([]table.Record, Report, error) {
	if err := db.validatePlan(plan); err != nil {
		return nil, Report{}, err
	}
	cur, err := db.whereCursor(context.Background(), u, plan, cursorOpts{cols: table.ColAll, stopAfter: -1})
	if err != nil {
		return nil, Report{}, err
	}
	return Collect(cur)
}

// Planner returns a cost-based planner over the currently built
// indexes, priced with the default cost model.
func (db *SpatialDB) Planner() (*planner.Planner, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.catalog == nil {
		return nil, fmt.Errorf("core: no catalog loaded")
	}
	p := &planner.Planner{
		Catalog: db.catalog,
		Kd:      db.kd,
		Sample:  db.grid.FirstLayer(),
	}
	if db.mem != nil {
		p.MemRows = int64(db.mem.Len())
	}
	return p, nil
}

// QueryPolyhedron executes one convex polyhedron query: QueryUnion
// over a set of one clause, planned once through the tier-1 plan cache
// like any WHERE.
func (db *SpatialDB) QueryPolyhedron(q vec.Polyhedron, plan Plan) ([]table.Record, Report, error) {
	return db.QueryUnion(colorsql.Union{Polys: []vec.Polyhedron{q}}, plan)
}

// NearestNeighbors returns the k catalog records closest to p in
// color space (§3.3), with a Report of the query's exact cost — the
// statement SELECT * ORDER BY dist(p) LIMIT k, uncached, on the
// caller's goroutine.
func (db *SpatialDB) NearestNeighbors(p vec.Point, k int) ([]table.Record, Report, error) {
	recs, reports, err := db.collectNeighbors(context.Background(), []vec.Point{p}, k)
	if err != nil {
		return nil, Report{}, err
	}
	return recs[0], reports[0], nil
}

// NearestNeighborsBatch answers many kNN queries, each its statement
// SELECT * ORDER BY dist(p) LIMIT k, returning results in input order
// with an exact per-query Report each. A done ctx stops the batch
// mid-statement and returns its error.
func (db *SpatialDB) NearestNeighborsBatch(ctx context.Context, ps []vec.Point, k int) ([][]table.Record, []Report, error) {
	if len(ps) != 1 {
		return db.collectNeighbors(ctx, ps, k)
	}
	// One point runs, and is cached, as its statement (Statement.IsKNN).
	if err := checkProbes(ps, k); err != nil {
		return nil, nil, err
	}
	cur, err := db.ExecStatement(ctx, knnStatement(ps[0], k), PlanAuto)
	if err != nil {
		return nil, nil, err
	}
	recs, rep, err := Collect(cur)
	if err != nil {
		return nil, nil, err
	}
	return [][]table.Record{recs}, []Report{rep}, nil
}

// knnStatement is the statement a kNN probe equals.
func knnStatement(p vec.Point, k int) colorsql.Statement {
	return colorsql.Statement{Star: true, Order: &colorsql.OrderBy{Dist: p}, Limit: k}
}

// checkProbes refuses what no kNN statement can express: k < 1, or a
// probe outside the catalog's dimension.
func checkProbes(ps []vec.Point, k int) error {
	if k < 1 {
		return fmt.Errorf("core: kNN k must be >= 1, got %d", k)
	}
	for i, p := range ps {
		if len(p) != table.Dim {
			return fmt.Errorf("core: kNN probe %d has %d coordinates, want %d", i, len(p), table.Dim)
		}
	}
	return nil
}

// collectNeighbors runs each probe's statement, uncached, on one
// snapshot and keeps every probe's records and Report, in input order:
// the catalog and the memtable, best kd node first under the k-th
// distance (or best page first without a tree).
func (db *SpatialDB) collectNeighbors(ctx context.Context, ps []vec.Point, k int) ([][]table.Record, []Report, error) {
	if err := checkProbes(ps, k); err != nil {
		return nil, nil, err
	}
	sn, err := db.snapshot()
	if err != nil {
		return nil, nil, err
	}
	defer sn.release()
	recs := make([][]table.Record, len(ps))
	reports := make([]Report, len(ps))
	for i, p := range ps {
		if recs[i], reports[i], err = sn.knnRows(ctx, knnStatement(p, k)); err != nil {
			return nil, nil, err
		}
	}
	return recs, reports, nil
}

// knnRows runs a kNN statement uncached on the snapshot: over its
// catalog and memtable, or with Reference over the photo-z reference.
func (sn *dbSnap) knnRows(ctx context.Context, stmt colorsql.Statement) ([]table.Record, Report, error) {
	opts := sn.db.statementOpts(stmt)
	var cur Cursor
	if stmt.Reference {
		cur = sn.referenceCursor(ctx, opts)
	} else {
		cur = sn.catalogCursor(ctx, opts)
	}
	return Collect(rankOrLimit(stmt, opts, cur))
}

// SampleRegion returns at least n points of the catalog whose first
// three magnitudes fall in the 3-D view box, following the
// underlying distribution (§3.1). The Report carries the sample's
// exact cost under its own accounting scope — the same visibility
// every other query path has.
func (db *SpatialDB) SampleRegion(view vec.Box, n int) ([]table.Record, Report, error) {
	sn, err := db.snapshot()
	if err != nil {
		return nil, Report{}, err
	}
	defer sn.release()
	if sn.grid == nil {
		return nil, Report{}, fmt.Errorf("core: grid index not built")
	}
	recs, st, err := sn.grid.Sample(view, n)
	rep := Report{
		Plan:         PlanGrid,
		RowsReturned: int64(st.Returned),
		RowsExamined: st.RowsExamined,
		DiskReads:    st.Pages.DiskReads,
		CacheHits:    st.Pages.Hits,
		PlanReason: fmt.Sprintf("grid sample: %d layers, %d cells scanned",
			st.LayersUsed, st.CellsScanned),
	}
	return recs, rep, err
}
