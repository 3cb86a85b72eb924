package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/photoz"
	"repro/internal/planner"
	"repro/internal/qos"
	"repro/internal/table"
	"repro/internal/vec"
	"repro/internal/vizhttp"
)

// Config tunes the coordinator's fan-out behaviour.
type Config struct {
	// ShardTimeout bounds every sub-request, connection to last byte.
	// 0 means 60s.
	ShardTimeout time.Duration
	// HedgeAfter launches a duplicate of an idempotent sub-request
	// that has not responded after this long (first response wins).
	// 0 means 2s; negative disables hedging.
	HedgeAfter time.Duration
	// Client is the HTTP client for sub-requests; nil means a
	// dedicated client with sane connection pooling.
	Client *http.Client
}

// Coordinator serves the whole catalog by scatter-gather over shard
// vizservers. It cold-opens from the routing table alone — no store
// I/O — plans each statement once with zero-I/O estimates (which
// shards to target, which merge discipline), fans sub-statements over
// the shards' own HTTP endpoints, and merges the streams.
// It implements vizhttp.Backend, so the coordinator serves the exact
// same HTTP surface as a single-store vizserver.
type Coordinator struct {
	rt      *RoutingTable
	targets []string
	cfg     Config
	client  *http.Client

	// Per-shard fan-out telemetry, surfaced in /stats.
	requests []atomic.Int64
	errors   []atomic.Int64
	hedges   []atomic.Int64
	hists    []*qos.Histogram

	// diskReads sums the exact per-shard page counters returned in
	// sub-query summaries — the cluster-wide analogue of the single
	// store's pool counter.
	diskReads atomic.Int64
}

var _ vizhttp.Backend = (*Coordinator)(nil)

// subPlan is one statement's routing decision: what the shards are
// asked, and which of them.
type subPlan struct {
	sub     colorsql.Statement
	targets []int
}

// NewCoordinator assembles a coordinator over the routing table and
// one base URL per shard (index i serves rt.Shards[i]).
func NewCoordinator(rt *RoutingTable, targets []string, cfg Config) (*Coordinator, error) {
	if err := rt.Validate(); err != nil {
		return nil, err
	}
	if len(targets) != rt.NumShards() {
		return nil, fmt.Errorf("shard: routing table has %d shards, got %d targets", rt.NumShards(), len(targets))
	}
	if cfg.ShardTimeout == 0 {
		cfg.ShardTimeout = 60 * time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		client = &http.Client{Transport: tr}
	}
	c := &Coordinator{
		rt:       rt,
		targets:  make([]string, len(targets)),
		cfg:      cfg,
		client:   client,
		requests: make([]atomic.Int64, len(targets)),
		errors:   make([]atomic.Int64, len(targets)),
		hedges:   make([]atomic.Int64, len(targets)),
		hists:    make([]*qos.Histogram, len(targets)),
	}
	for i, t := range targets {
		c.targets[i] = strings.TrimRight(t, "/")
		c.hists[i] = &qos.Histogram{}
	}
	return c, nil
}

// observe runs one sub-request against shard s inside the fan-out
// telemetry envelope: request count, latency histogram, error count. A
// cancellation we caused ourselves (LIMIT early stop, caller disconnect)
// is not a shard failure and records neither; a fired ShardTimeout is.
func (c *Coordinator) observe(ctx context.Context, s int, call func() error) error {
	start := time.Now()
	c.requests[s].Add(1)
	err := call()
	if ctx.Err() != context.Canceled {
		c.hists[s].Record(time.Since(start))
		if err != nil {
			c.errors[s].Add(1)
		}
	}
	return err
}

// planStatement resolves one statement's routing from the routing
// table alone, with zero I/O: a few cells per shard tested against the
// predicate, cheap enough to redo on every call.
func (c *Coordinator) planStatement(stmt colorsql.Statement) subPlan {
	sp := subPlan{sub: stmt}
	if !stmt.Star && stmt.Order != nil {
		// The shards are asked for the caller's projection plus what an
		// order merge reads: the magnitudes the ordering key is computed
		// from and the identity that breaks its ties.
		cols := slices.Clone(stmt.Cols)
		for _, need := range colorsql.StarColumns()[:1+table.Dim] { // objid, u..z
			if !slices.ContainsFunc(cols, func(h colorsql.Column) bool { return h.Kind == need.Kind && h.Axis == need.Axis }) {
				cols = append(cols, need)
			}
		}
		sp.sub.Cols = cols
	}
	if stmt.HasWhere {
		sp.targets = c.rt.TargetsFor(stmt.Where.Polys)
	} else {
		sp.targets = c.rt.AllShards()
	}
	return sp
}

// ExecStatement fans the statement to the targeted shards and merges
// the streams (merge.go). Unbounded scans and ORDER BY merges open
// every target at once; an unordered statement with a LIMIT — under
// any WHERE — visits the targets one after another, as far as the
// LIMIT needs. The caller's
// column list is applied at serialization time, so the columns the
// merge asked for on its own account never reach the client.
func (c *Coordinator) ExecStatement(ctx context.Context, stmt colorsql.Statement, plan core.Plan) (core.Cursor, error) {
	if plan != core.PlanAuto {
		return nil, fmt.Errorf("shard: the coordinator only routes auto plans (shards plan locally); got %v", plan)
	}
	if stmt.Limit == 0 {
		return core.SliceCursor(nil, core.Report{Plan: plan, PlanReason: "LIMIT 0: no rows requested"}), nil
	}
	// ORDER BY dist LIMIT k with no predicate is a nearest-neighbour
	// search, here as on the single store.
	if stmt.IsKNN() {
		if stmt.Reference && c.rt.PhotoZK <= 0 {
			return nil, errNoPhotoZK
		}
		recs, reps, err := c.boundedKNN(ctx, []vec.Point{stmt.Order.Dist}, stmt.Limit, stmt.Reference)
		if err != nil {
			return nil, err
		}
		return core.SliceCursor(recs[0], reps[0]), nil
	}
	sp := c.planStatement(stmt)
	if len(sp.targets) == 0 {
		return core.SliceCursor(nil, core.Report{
			Plan:       plan,
			PlanReason: "scatter-gather: routing table proves every shard disjoint from the predicate",
		}), nil
	}

	cctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	base := scatterCursor{
		ctx:     cctx,
		cancel:  cancel,
		sub:     sp.sub,
		targets: sp.targets,
		streams: make([]*shardStream, len(sp.targets)),
		c:       c,
		limit:   int64(stmt.Limit),
	}
	base.agg.PlanReason = scatterReason(len(sp.targets), c.rt.NumShards())
	if stmt.Order != nil || stmt.Limit < 0 {
		query := sp.sub.String()
		for i, t := range sp.targets {
			base.streams[i] = c.startQueryStream(cctx, t, query)
		}
	}
	if stmt.Order != nil {
		return &orderMergeCursor{scatterCursor: base, order: stmt.Order}, nil
	}
	return &scanMergeCursor{scatterCursor: base}, nil
}

// ExecStatementCached always misses: result caching lives on the
// shards (each sub-query probes its shard's cache), not on the
// coordinator.
func (c *Coordinator) ExecStatementCached(colorsql.Statement, core.Plan) (core.Cursor, bool) {
	return nil, false
}

// EstimateStatementCost prices the statement with zero I/O from the
// routing table alone: a full scan of the targeted shards' rows — the
// upper bound a store without a sample reports (zone-bound) — or, for
// the statement that runs as a nearest-neighbour search, that search's
// price.
func (c *Coordinator) EstimateStatementCost(stmt colorsql.Statement) float64 {
	if stmt.Limit == 0 {
		return 0
	}
	if stmt.IsKNN() {
		return c.EstimateKNNCost(stmt.Limit, 1)
	}
	var rows int64
	for _, t := range c.planStatement(stmt).targets {
		rows += c.rt.Shards[t].Rows
	}
	return planner.DefaultCostModel().FullScanCost(rows)
}

// NearestNeighborsBatch answers the batch by bounded scatter-gather
// (knn.go): each probe's owning shard first, another shard only when
// one of its cells is nearer than the owner's k-th neighbour.
func (c *Coordinator) NearestNeighborsBatch(ctx context.Context, qs []vec.Point, k int) ([][]table.Record, []core.Report, error) {
	return c.boundedKNN(ctx, qs, k, false)
}

// NearestNeighborsBatchCached always misses (shards own the caches).
func (c *Coordinator) NearestNeighborsBatchCached([]vec.Point, int) ([][]table.Record, []core.Report, bool) {
	return nil, nil, false
}

// EstimateKNNCost prices one owner visit per point — what a bounded
// search does for every probe. The second-phase visits are not priced:
// they happen for the few probes whose k-th distance crosses a shard
// boundary, and each is a few-page index scan.
func (c *Coordinator) EstimateKNNCost(k, numPoints int) float64 {
	m := planner.DefaultCostModel()
	return float64(numPoints) * float64(k) * (m.Row + m.Node)
}

// EstimateRedshiftBatch fits each probe's photoZK nearest reference
// rows, found by the bounded kNN nearest first as a single store's
// search finds them, so it is float64-identical to a single store over
// the same rows.
func (c *Coordinator) EstimateRedshiftBatch(ctx context.Context, qs []vec.Point) ([]float64, core.Report, error) {
	if c.rt.PhotoZK <= 0 {
		return nil, core.Report{}, errNoPhotoZK
	}
	nbs, reps, err := c.boundedKNN(ctx, qs, c.rt.PhotoZK, true)
	if err != nil {
		return nil, core.Report{}, err
	}
	zs := make([]float64, len(qs))
	rep := core.Report{Plan: core.PlanKdTree, RowsReturned: int64(len(qs)), PlanReason: "photo-z: bounded kNN over the shards' reference rows, then a local fit"}
	for i, q := range qs {
		if len(nbs[i]) == 0 {
			return nil, core.Report{}, fmt.Errorf("shard: photo-z: the shards returned no reference rows")
		}
		z, fellBack := photoz.Fit(q, nbs[i], photoZDegree)
		zs[i] = z
		if fellBack {
			rep.FitFallbacks++
		}
		rep.Add(reps[i])
	}
	return zs, rep, nil
}

// errNoPhotoZK refuses photo-z without spectroscopic rows, or where
// every shard holds a whole reference, which the merge would count
// once per shard.
var errNoPhotoZK = fmt.Errorf("shard: %s records no photoZK: no photo-z reference, or one replicated into every shard", RoutingFile)

// EstimateRedshiftBatchCached always misses (shards own the caches).
func (c *Coordinator) EstimateRedshiftBatchCached([]vec.Point) ([]float64, core.Report, bool) {
	return nil, core.Report{}, false
}

// EstimatePhotoZCost prices a batch as its kNN searches; 0 without
// photoZK, where the estimate fails instead.
func (c *Coordinator) EstimatePhotoZCost(numPoints int) float64 {
	if c.rt.PhotoZK <= 0 {
		return 0
	}
	return c.EstimateKNNCost(c.rt.PhotoZK, numPoints)
}

// SampleRegion fans /points across the shards whose cells can
// intersect the 3-D view, asking each for a share proportional to its
// row count, and sums the shards' exact counters. Sampling endpoints
// are best-effort by design (they serve the viz, not the exact query
// surface), but failures still surface.
func (c *Coordinator) SampleRegion(view vec.Box, n int) ([]table.Record, core.Report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ShardTimeout)
	defer cancel()

	targets := c.shardsIntersectingView(view)
	if len(targets) == 0 {
		return nil, core.Report{Plan: core.PlanGrid, PlanReason: scatterReason(0, c.rt.NumShards())}, nil
	}
	var targetRows int64
	for _, t := range targets {
		targetRows += c.rt.Shards[t].Rows
	}

	answers, reps, err := c.fetchEach(ctx, targets, func(t int) string {
		share := max(int(int64(n)*c.rt.Shards[t].Rows/max(targetRows, 1)), 1)
		return fmt.Sprintf("/points?min=%s,%s,%s&max=%s,%s,%s&n=%d",
			formatFloat(view.Min[0]), formatFloat(view.Min[1]), formatFloat(view.Min[2]),
			formatFloat(view.Max[0]), formatFloat(view.Max[1]), formatFloat(view.Max[2]), share)
	})
	if err != nil {
		return nil, core.Report{}, err
	}
	var recs []table.Record
	rep := core.Report{Plan: core.PlanGrid, PlanReason: scatterReason(len(targets), c.rt.NumShards())}
	for s, a := range answers {
		recs = append(recs, a[:min(len(a), n-len(recs))]...)
		rep.Add(reps[s])
		c.diskReads.Add(reps[s].DiskReads)
	}
	rep.RowsReturned = int64(len(recs))
	return recs, rep, nil
}

// shardsIntersectingView prunes shards whose cells cannot meet the
// 3-D (u,g,r) view box on its three axes.
func (c *Coordinator) shardsIntersectingView(view vec.Box) []int {
	var out []int
	for i := range c.rt.Shards {
		hit := false
		for _, cell := range c.rt.Shards[i].Cells {
			ok := true
			for d := 0; d < 3 && d < len(cell.Min); d++ {
				if view.Max[d] < cell.Min[d] || view.Min[d] > cell.Max[d] {
					ok = false
					break
				}
			}
			if ok {
				hit = true
				break
			}
		}
		if hit {
			out = append(out, i)
		}
	}
	return out
}

// QuerySkyBox fans /sky to every shard (sky position is not the
// partition key, so no pruning) and concatenates the answers in shard
// order with summed exact counters.
func (c *Coordinator) QuerySkyBox(ctx context.Context, box table.SkyBoxPred, cols table.ColumnSet) (core.Cursor, error) {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()

	path := skyQueryPath(box.RaMin, box.RaMax, box.DecMin, box.DecMax, 1_000_000)
	answers, reps, err := c.fetchEach(cctx, c.rt.AllShards(), func(int) string { return path })
	if err != nil {
		return nil, err
	}
	var recs []table.Record
	rep := core.Report{PlanReason: scatterReason(c.rt.NumShards(), c.rt.NumShards())}
	for s := range reps {
		rep.Add(reps[s])
		c.diskReads.Add(reps[s].DiskReads)
		recs = append(recs, answers[s]...)
	}
	return core.SliceCursor(recs, rep), nil
}

// Insert routes the batch by partition key: rows are grouped by
// RouteMags and each group goes through its owning shard's /insert —
// and therefore that shard's WAL, preserving the per-shard durability
// acknowledgement. A failing shard aborts with a descriptive error;
// groups already acknowledged by other shards stay durable (the
// semantics of a partially failed multi-shard batch are those of
// issuing the per-shard batches yourself).
func (c *Coordinator) Insert(recs []table.Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("shard: empty insert batch")
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ShardTimeout)
	defer cancel()

	type insertRow struct {
		ObjID    int64      `json:"objId"`
		Mags     [5]float64 `json:"mags"`
		Ra       float64    `json:"ra"`
		Dec      float64    `json:"dec"`
		Redshift *float64   `json:"redshift,omitempty"`
		Class    string     `json:"class"`
	}
	groups := make(map[int][]insertRow)
	m := make([]float64, 5)
	for i := range recs {
		rec := &recs[i]
		for d := 0; d < 5; d++ {
			m[d] = float64(rec.Mags[d])
		}
		s := c.rt.RouteMags(m)
		row := insertRow{ObjID: rec.ObjID, Ra: float64(rec.Ra), Dec: float64(rec.Dec), Class: rec.Class.String()}
		for d := 0; d < 5; d++ {
			row.Mags[d] = float64(rec.Mags[d])
		}
		if rec.HasZ {
			z := float64(rec.Redshift)
			row.Redshift = &z
		}
		groups[s] = append(groups[s], row)
	}

	var maxSeq uint64
	shards := make([]int, 0, len(groups))
	for s := range groups {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	for _, s := range shards {
		body, err := json.Marshal(map[string]any{"rows": groups[s]})
		if err != nil {
			return 0, err
		}
		var resp struct {
			Seq uint64 `json:"seq"`
		}
		if err := c.observe(ctx, s, func() error { return c.postOnce(ctx, s, "/insert", body, &resp) }); err != nil {
			return 0, err
		}
		if resp.Seq > maxSeq {
			maxSeq = resp.Seq
		}
	}
	return maxSeq, nil
}

// BackendStats surfaces the fan-out telemetry: per-shard request and
// error counts, hedge count, and the fan-out latency histogram, plus
// the summed exact per-shard page counters.
func (c *Coordinator) BackendStats() map[string]any {
	shards := make([]map[string]any, c.rt.NumShards())
	for i := range shards {
		shards[i] = map[string]any{
			"id":       i,
			"target":   c.targets[i],
			"rows":     c.rt.Shards[i].Rows,
			"requests": c.requests[i].Load(),
			"errors":   c.errors[i].Load(),
			"hedges":   c.hedges[i].Load(),
			"latency":  c.hists[i].Snapshot(),
		}
	}
	return map[string]any{
		"coordinator": true,
		"diskReads":   c.diskReads.Load(),
		"shards":      shards,
		"routing": map[string]any{
			"shards":    c.rt.NumShards(),
			"units":     len(c.rt.UnitShard),
			"totalRows": c.rt.TotalRows,
		},
	}
}
