package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/vec"
)

// This file is the cluster's nearest-neighbour search: a two-phase,
// routing-pruned fan-out that visits a shard only when it can change
// the answer.
//
//   - phase 1: every probe goes to the shard that owns its magnitudes
//     (RouteMags) — the one place a region can grow from inside its
//     own cell. The owner's k-th neighbour fixes a squared radius, the
//     bound: no row farther than it can be in the answer.
//   - phase 2: another shard is visited for a probe only if one of its
//     cells is nearer than the bound (CellDist2). The visit is a
//     statement the shards already serve — the bound's box as a WHERE
//     clause under ORDER BY dist(p) LIMIT k — so the shard answers
//     with a few-page index scan and the top-k cursor instead of
//     growing a region from outside its cell.
//
// Exactness rests on three facts. The cells of all shards tile
// magnitude space out to ±routingInf, and rows placed by BuildCluster
// or routed by Coordinator.Insert lie inside their shard's cells, so
// CellDist2 is a lower bound on the distance to every row of a shard
// (in floating point too: subtraction, squaring and summation are
// monotone, and Box.Dist2 sums its terms in the order the distance
// does). A skipped shard therefore holds only rows at or beyond the
// owner's k-th distance; they could at most tie with it. And a row
// written straight to a shard outside its cells was already invisible
// to TargetsFor. When the owner holds fewer than k rows the bound is
// +Inf and every shard is visited, which is the unpruned broadcast.

// maxKNNVisits caps the sub-requests one search keeps in flight.
const maxKNNVisits = 32

// forChunks splits [0, n) into at most maxKNNVisits contiguous chunks
// and runs fn on each concurrently, the first on the caller's
// goroutine. fn polls stopped between items and returns early once it
// reports true; the first error stops the remaining work and is
// returned.
func forChunks(n int, fn func(lo, hi int, stopped func() bool) error) error {
	var (
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	runChunk := func(lo, hi int) {
		if err := fn(lo, hi, failed.Load); err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			failed.Store(true)
		}
	}
	w := min(n, maxKNNVisits)
	for c := 1; c < w; c++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			runChunk(lo, hi)
		}(c*n/w, (c+1)*n/w)
	}
	if w > 0 {
		runChunk(0, n/w)
	}
	wg.Wait()
	return firstErr
}

// knnPart is one shard's answer to one probe: its local neighbours,
// nearest first, and the exact counters of finding them.
type knnPart struct {
	recs []table.Record
	rep  core.Report
}

// knnVisit is one sub-request of a search: shard answers the probes at
// batch positions idx with the rows nearer than bound (a squared
// distance; +Inf for an unbounded visit). parts is filled by the
// visit, aligned with idx.
type knnVisit struct {
	shard int
	idx   []int
	bound float64
	parts []knnPart
}

// knnCand is one candidate neighbour of one probe.
type knnCand struct {
	rec   table.Record
	dist2 float64
	shard int
}

// recDist2 is the squared distance from a row to a probe, computed the
// way every layer ranks neighbours: float32 magnitudes widened to
// float64, terms summed in band order.
func recDist2(rec *table.Record, q vec.Point) float64 {
	var s float64
	for d, v := range rec.Mags {
		diff := float64(v) - q[d]
		s += diff * diff
	}
	return s
}

// boundedKNN answers a batch of probes with the two-phase protocol
// described at the top of this file, results and reports in input
// order. wholeRows selects how an unbounded visit is asked: a /knn
// neighbour carries no sky position, so the ORDER BY dist(p) LIMIT k
// statement (whose rows may project ra and dec) asks in statements
// throughout, while /knn batches go out as one /knn POST per shard
// and keep the per-query leaf counts only that endpoint reports.
func (c *Coordinator) boundedKNN(ctx context.Context, qs []vec.Point, k int, wholeRows bool) ([][]table.Record, []core.Report, error) {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()

	n := c.rt.NumShards()
	owner := make([]int, len(qs))
	cands := make([][]knnCand, len(qs))
	reports := make([]core.Report, len(qs))
	visited := make([]int, len(qs))

	// run executes the visits concurrently and folds their parts into
	// the per-probe candidate lists and reports. The first failure
	// cancels the rest: an error names its shard, and a search never
	// returns a short list in its place.
	run := func(visits []knnVisit) error {
		err := forChunks(len(visits), func(lo, hi int, stopped func() bool) error {
			for v := lo; v < hi && !stopped(); v++ {
				if err := c.visitKNN(cctx, &visits[v], qs, k, wholeRows); err != nil {
					cancel()
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, v := range visits {
			for t, i := range v.idx {
				part := &v.parts[t]
				for j := range part.recs {
					rec := &part.recs[j]
					cands[i] = append(cands[i], knnCand{rec: *rec, dist2: recDist2(rec, qs[i]), shard: v.shard})
				}
				rep := &reports[i]
				if v.shard == owner[i] {
					rep.Plan = part.rep.Plan
				}
				rep.LeavesExamined += part.rep.LeavesExamined
				rep.RowsExamined += part.rep.RowsExamined
				rep.DiskReads += part.rep.DiskReads
				rep.CacheHits += part.rep.CacheHits
				rep.PagesSkipped += part.rep.PagesSkipped
				rep.PagesScanned += part.rep.PagesScanned
				rep.StripsDecoded += part.rep.StripsDecoded
				c.diskReads.Add(part.rep.DiskReads)
				visited[i]++
			}
		}
		return nil
	}

	// Phase 1: each probe's owner, one visit per owning shard.
	byOwner := make([][]int, n)
	for i, q := range qs {
		owner[i] = c.rt.RouteMags(q)
		byOwner[owner[i]] = append(byOwner[owner[i]], i)
	}
	if err := run(unboundedVisits(byOwner)); err != nil {
		return nil, nil, err
	}

	// Phase 2: the shards whose cells reach inside a probe's bound. A
	// bound belongs to one probe, so a bounded visit carries one probe;
	// probes still without a bound share one unbounded visit per shard.
	var phase2 []knnVisit
	unbounded := make([][]int, n)
	for i, q := range qs {
		bound := math.Inf(1)
		if len(cands[i]) >= k {
			bound = 0
			for _, cd := range cands[i] {
				bound = max(bound, cd.dist2)
			}
		}
		for s := 0; s < n; s++ {
			if s == owner[i] || c.rt.CellDist2(s, q) >= bound {
				continue
			}
			if math.IsInf(bound, 1) {
				unbounded[s] = append(unbounded[s], i)
			} else {
				phase2 = append(phase2, knnVisit{shard: s, idx: []int{i}, bound: bound})
			}
		}
	}
	if err := run(append(phase2, unboundedVisits(unbounded)...)); err != nil {
		return nil, nil, err
	}

	// Merge: nearest first by recomputed distance, ties by shard index
	// and then by each shard's own order. Rows are never merged by
	// ObjID: a row lives on one shard, and the single store returns two
	// physical rows that share an identity as two neighbours.
	recs := make([][]table.Record, len(qs))
	for i, cs := range cands {
		sort.SliceStable(cs, func(a, b int) bool {
			if cs[a].dist2 != cs[b].dist2 {
				return cs[a].dist2 < cs[b].dist2
			}
			return cs[a].shard < cs[b].shard
		})
		cs = cs[:min(k, len(cs))]
		recs[i] = make([]table.Record, len(cs))
		for j := range cs {
			recs[i][j] = cs[j].rec
		}
		reports[i].RowsReturned = int64(len(recs[i]))
		reports[i].PlanReason = fmt.Sprintf("bounded kNN: owner shard %d, then %d of %d others (cells nearer than the k-th distance)",
			owner[i], visited[i]-1, n-1)
	}
	return recs, reports, nil
}

// unboundedVisits turns per-shard probe lists into unbounded visits,
// skipping shards with nothing to answer.
func unboundedVisits(byShard [][]int) []knnVisit {
	var visits []knnVisit
	for s, idx := range byShard {
		if len(idx) > 0 {
			visits = append(visits, knnVisit{shard: s, idx: idx, bound: math.Inf(1)})
		}
	}
	return visits
}

// visitKNN performs one visit and fills v.parts.
func (c *Coordinator) visitKNN(ctx context.Context, v *knnVisit, qs []vec.Point, k int, wholeRows bool) error {
	if !wholeRows && math.IsInf(v.bound, 1) {
		var err error
		v.parts, err = c.knnPost(ctx, v.shard, qs, v.idx, k)
		return err
	}
	v.parts = make([]knnPart, len(v.idx))
	for t, i := range v.idx {
		part := &v.parts[t]
		err := c.observe(ctx, v.shard, func() (err error) {
			part.rep, err = c.fetchQuery(ctx, v.shard, knnStatement(qs[i], k, v.bound), func(block []table.Record) error {
				part.recs = append(part.recs, block...)
				return nil
			})
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// knnStatement renders a visit as a statement: the shard's k nearest
// rows to q, restricted to the bound's box when there is a bound.
func knnStatement(q vec.Point, k int, bound2 float64) string {
	st := colorsql.Statement{Star: true, Order: &colorsql.OrderBy{Dist: q}, Limit: k}
	if !math.IsInf(bound2, 1) {
		st.HasWhere = true
		st.Where = colorsql.Union{Polys: []vec.Polyhedron{vec.BoxPolyhedron(boundBox(q, bound2))}}
	}
	return st.String()
}

// boundBox is the axis-aligned box around the ball of squared radius
// bound2 at q, inflated outward — a part in 1e9 of the radius and one
// ulp of each face — so no rounding of the square root or of q ± r can
// leave out a row the ball holds, and a strict or a closed comparison
// on the shard selects the same rows.
func boundBox(q vec.Point, bound2 float64) vec.Box {
	r := math.Sqrt(bound2) * (1 + 1e-9)
	lo, hi := make(vec.Point, len(q)), make(vec.Point, len(q))
	for d, v := range q {
		lo[d] = math.Nextafter(v-r, math.Inf(-1))
		hi[d] = math.Nextafter(v+r, math.Inf(1))
	}
	return vec.Box{Min: lo, Max: hi}
}

// knn wire shapes (the /knn response).
type knnWireNeighbor struct {
	ObjID    int64      `json:"objId"`
	Mags     [5]float64 `json:"mags"`
	Class    string     `json:"class"`
	Redshift float64    `json:"redshift"`
}

type knnWireResult struct {
	Neighbors      []knnWireNeighbor `json:"neighbors"`
	LeavesExamined int64             `json:"leavesExamined"`
	RowsExamined   int64             `json:"rowsExamined"`
	DiskReads      int64             `json:"diskReads"`
}

type knnWireResponse struct {
	Plan       string          `json:"plan"`
	PlanReason string          `json:"planReason"`
	Results    []knnWireResult `json:"results"`
}

// knnPost asks one shard for the k nearest rows to each of the probes
// at idx with a single /knn POST.
func (c *Coordinator) knnPost(ctx context.Context, shard int, qs []vec.Point, idx []int, k int) ([]knnPart, error) {
	points := make([][]float64, len(idx))
	for t, i := range idx {
		points[t] = qs[i]
	}
	body, err := json.Marshal(map[string]any{"points": points, "k": k})
	if err != nil {
		return nil, err
	}
	var resp knnWireResponse
	if err := c.observe(ctx, shard, func() error { return c.postJSON(ctx, shard, "/knn", body, &resp) }); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(idx) {
		return nil, c.shardError(shard, fmt.Errorf("knn returned %d results for %d queries", len(resp.Results), len(idx)))
	}
	plan := parsePlan(resp.Plan)
	parts := make([]knnPart, len(idx))
	for t := range parts {
		res := &resp.Results[t]
		part := &parts[t]
		part.rep = core.Report{
			Plan:           plan,
			LeavesExamined: res.LeavesExamined,
			RowsExamined:   res.RowsExamined,
			DiskReads:      res.DiskReads,
		}
		part.recs = make([]table.Record, len(res.Neighbors))
		for j, nb := range res.Neighbors {
			cl, ok := table.ParseClass(nb.Class)
			if !ok {
				return nil, c.shardError(shard, fmt.Errorf("unknown class %q", nb.Class))
			}
			rec := &part.recs[j]
			rec.ObjID, rec.Class, rec.Redshift = nb.ObjID, cl, float32(nb.Redshift)
			for d := range rec.Mags {
				rec.Mags[d] = float32(nb.Mags[d])
			}
		}
	}
	return parts, nil
}
