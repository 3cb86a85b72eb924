package shard

import (
	"context"
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
//     own cell — as the statement ORDER BY dist(p) LIMIT k, which the
//     shard serves as its own kNN search. The owner's k-th neighbour
//     fixes a squared radius, the bound: no row farther than it can be
//     in the answer.
//   - phase 2: another shard is visited for a probe only if one of its
//     cells is nearer than the bound (CellDist2). The visit is the same
//     statement with the bound's box as its WHERE clause, so the shard
//     answers with a few-page index scan and the top-k cursor instead
//     of growing a region from outside its cell.
//
// Every visit is one statement for one probe (knnStatement), read
// through fetch like any other statement's rows.
//
// FROM reference runs the same search over the shards' photo-z
// references, each its own spectroscopic rows. Its visits take no
// WHERE: a phase-2 shard returns its k nearest, the merge keeps k.
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

// knnVisit is one sub-request of a search: shard answers probe i with
// its k nearest rows nearer than bound (a squared distance; +Inf for an
// unbounded visit). The visit fills recs, nearest first, and the exact
// counters of finding them.
type knnVisit struct {
	shard, i int
	bound    float64
	recs     []table.Record
	rep      core.Report
}

// knnCand is one candidate neighbour of one probe.
type knnCand struct {
	rec   table.Record
	dist2 float64
	shard int
}

// boundedKNN answers a batch of probes with the two-phase protocol
// described at the top of this file — over the reference rows when
// reference is set — results and reports in input order.
func (c *Coordinator) boundedKNN(ctx context.Context, qs []vec.Point, k int, reference bool) ([][]table.Record, []core.Report, error) {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()

	n := c.rt.NumShards()
	owner := make([]int, len(qs))
	cands := make([][]knnCand, len(qs))
	reports := make([]core.Report, len(qs))
	visited := make([]int, len(qs))

	// run executes the visits concurrently and folds them into the
	// per-probe candidate lists and reports. The first failure cancels
	// the rest: an error names its shard, and a search never returns a
	// short list in its place.
	run := func(visits []knnVisit) error {
		err := forChunks(len(visits), func(lo, hi int, stopped func() bool) error {
			for j := lo; j < hi && !stopped(); j++ {
				v := &visits[j]
				err := c.observe(cctx, v.shard, func() (err error) {
					v.recs, v.rep, err = c.fetchAll(cctx, v.shard, queryPath(knnStatement(qs[v.i], k, v.bound, reference)))
					return err
				})
				if err != nil {
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
			i := v.i
			for j := range v.recs {
				rec := &v.recs[j]
				cands[i] = append(cands[i], knnCand{rec: *rec, dist2: table.Dist2(&rec.Mags, qs[i]), shard: v.shard})
			}
			rep := &reports[i]
			if v.shard == owner[i] {
				rep.Plan = v.rep.Plan
			}
			rep.Add(v.rep)
			c.diskReads.Add(v.rep.DiskReads)
			visited[i]++
		}
		return nil
	}

	// Phase 1: each probe's owner.
	phase1 := make([]knnVisit, len(qs))
	for i, q := range qs {
		owner[i] = c.rt.RouteMags(q)
		phase1[i] = knnVisit{shard: owner[i], i: i, bound: math.Inf(1)}
	}
	if err := run(phase1); err != nil {
		return nil, nil, err
	}

	// Phase 2: the shards whose cells reach inside a probe's bound —
	// every other shard, unbounded, when the owner held fewer than k.
	var phase2 []knnVisit
	for i, q := range qs {
		bound := math.Inf(1)
		if len(cands[i]) >= k {
			bound = 0
			for _, cd := range cands[i] {
				bound = max(bound, cd.dist2)
			}
		}
		for s := 0; s < n; s++ {
			if s != owner[i] && c.rt.CellDist2(s, q) < bound {
				phase2 = append(phase2, knnVisit{shard: s, i: i, bound: bound})
			}
		}
	}
	if err := run(phase2); err != nil {
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

// knnStatement renders a visit as a statement: the shard's k nearest
// rows (reference rows, with reference set) to q, restricted to the
// bound's box when there is a bound and the statement takes a WHERE.
func knnStatement(q vec.Point, k int, bound2 float64, reference bool) string {
	st := colorsql.Statement{Star: true, Order: &colorsql.OrderBy{Dist: q}, Limit: k, Reference: reference}
	if !reference && !math.IsInf(bound2, 1) {
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
