package vizhttp

import (
	"context"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/table"
	"repro/internal/vec"
)

// Backend is the query engine behind the HTTP surface. Two
// implementations exist: a single-store core.SpatialDB (via New) and
// the scatter-gather shard coordinator (internal/shard, via
// NewBackend). Because both serve through the same handlers, the wire
// format — row serialization, summary shape, X-Cache semantics — is
// identical by construction, which is what the shard-vs-single-store
// byte-identity tests pin down.
type Backend interface {
	// Statement execution. ExecStatementCached probes the result cache
	// without executing; ok=false means miss.
	ExecStatement(ctx context.Context, stmt colorsql.Statement, plan core.Plan) (core.Cursor, error)
	ExecStatementCached(stmt colorsql.Statement, plan core.Plan) (core.Cursor, bool)
	EstimateStatementCost(stmt colorsql.Statement) float64

	// Batched kNN and photo-z.
	NearestNeighborsBatch(ctx context.Context, qs []vec.Point, k int) ([][]table.Record, []core.Report, error)
	NearestNeighborsBatchCached(qs []vec.Point, k int) ([][]table.Record, []core.Report, bool)
	EstimateKNNCost(k, numPoints int) float64
	EstimateRedshiftBatch(ctx context.Context, qs []vec.Point) ([]float64, core.Report, error)
	EstimateRedshiftBatchCached(qs []vec.Point) ([]float64, core.Report, bool)
	EstimatePhotoZCost(numPoints int) float64

	// Sampling (viz endpoints) and the rectangular sky cut.
	SampleRegion(view vec.Box, n int) ([]table.Record, core.Report, error)
	QuerySkyBox(ctx context.Context, box table.SkyBoxPred, cols table.ColumnSet) (core.Cursor, error)

	// Write path.
	Insert(recs []table.Record) (uint64, error)
	MemRows() int

	// QoS pricing.
	DefaultExpensiveCost() float64

	// BackendStats returns backend-specific /stats keys; the server
	// merges its own serving counters over them.
	BackendStats() map[string]any
}

// coreBackend adapts a *core.SpatialDB to the Backend interface.
type coreBackend struct {
	db *core.SpatialDB
}

// CoreBackend wraps db as a Backend (what New does internally);
// exported for callers that assemble the server via NewBackend.
func CoreBackend(db *core.SpatialDB) Backend { return coreBackend{db: db} }

func (b coreBackend) ExecStatement(ctx context.Context, stmt colorsql.Statement, plan core.Plan) (core.Cursor, error) {
	return b.db.ExecStatement(ctx, stmt, plan)
}

func (b coreBackend) ExecStatementCached(stmt colorsql.Statement, plan core.Plan) (core.Cursor, bool) {
	return b.db.ExecStatementCached(stmt, plan)
}

func (b coreBackend) EstimateStatementCost(stmt colorsql.Statement) float64 {
	return b.db.EstimateStatementCost(stmt)
}

func (b coreBackend) NearestNeighborsBatch(ctx context.Context, qs []vec.Point, k int) ([][]table.Record, []core.Report, error) {
	return b.db.NearestNeighborsBatch(ctx, qs, k)
}

func (b coreBackend) NearestNeighborsBatchCached(qs []vec.Point, k int) ([][]table.Record, []core.Report, bool) {
	return b.db.NearestNeighborsBatchCached(qs, k)
}

func (b coreBackend) EstimateKNNCost(k, numPoints int) float64 {
	return b.db.EstimateKNNCost(k, numPoints)
}

func (b coreBackend) EstimateRedshiftBatch(ctx context.Context, qs []vec.Point) ([]float64, core.Report, error) {
	return b.db.EstimateRedshiftBatch(ctx, qs)
}

func (b coreBackend) EstimateRedshiftBatchCached(qs []vec.Point) ([]float64, core.Report, bool) {
	return b.db.EstimateRedshiftBatchCached(qs)
}

func (b coreBackend) EstimatePhotoZCost(numPoints int) float64 {
	return b.db.EstimatePhotoZCost(numPoints)
}

func (b coreBackend) SampleRegion(view vec.Box, n int) ([]table.Record, core.Report, error) {
	return b.db.SampleRegion(view, n)
}

func (b coreBackend) QuerySkyBox(ctx context.Context, box table.SkyBoxPred, cols table.ColumnSet) (core.Cursor, error) {
	return b.db.QuerySkyBox(ctx, box, cols)
}

func (b coreBackend) Insert(recs []table.Record) (uint64, error) { return b.db.Insert(recs) }

func (b coreBackend) MemRows() int { return b.db.MemRows() }

// DefaultExpensiveCost prices "expensive" relative to the loaded
// catalog: eight full sequential scans. Every sane T1–T5 request
// prices far below it; a 10k-point k=1000 kNN batch prices far above.
// Falls back to a large constant when no catalog is loaded yet.
func (b coreBackend) DefaultExpensiveCost() float64 {
	pl, err := b.db.Planner()
	if err != nil {
		return 1 << 20
	}
	full := planner.DefaultCostModel().FullScanCost(int64(pl.Catalog.NumRows()))
	if full <= 0 {
		return 1 << 20
	}
	return 8 * full
}

func (b coreBackend) BackendStats() map[string]any {
	pages := b.db.Engine().Store().Stats()
	pz := b.db.PhotoZStats()
	return map[string]any{
		"diskReads":          pages.DiskReads,
		"poolHits":           pages.Hits,
		"pinnedPages":        b.db.Engine().Store().PinnedPages(),
		"photozEstimates":    pz.Estimates,
		"photozFitFallbacks": pz.FitFallbacks,
		"qcache":             b.db.CacheStatsSnapshot(),
		"ingest":             b.db.IngestStatsSnapshot(),
	}
}
