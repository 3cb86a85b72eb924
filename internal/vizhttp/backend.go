package vizhttp

import (
	"context"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/vec"
)

// Backend is the query engine behind the HTTP surface. Two
// implementations exist: the single store, *core.SpatialDB (via New),
// and the scatter-gather shard coordinator (internal/shard, via
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

	// BackendStats returns backend-specific /stats keys; the server
	// merges its own serving counters over them.
	BackendStats() map[string]any
}

var _ Backend = (*core.SpatialDB)(nil)

// CoreBackend returns db as a Backend, for callers that assemble the
// server via NewBackend.
func CoreBackend(db *core.SpatialDB) Backend { return db }
