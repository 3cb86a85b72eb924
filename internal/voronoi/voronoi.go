// Package voronoi implements the paper's Voronoi tessellation index
// (§3.4). The full tessellation of the whole table is out of reach
// (the paper estimates 270 GB of memory for its 270M rows), so the
// index follows the paper's sampled design:
//
//  1. draw Nseed representative seed points from the table (the
//     paper uses a 10K random sample);
//  2. tag every row with the ID of the Voronoi cell that contains it
//     — i.e. its nearest seed;
//  3. number the cells along a space-filling curve and build a
//     clustered index over the tags, so each cell's rows are one
//     contiguous range on disk;
//  4. keep the Delaunay graph of the seeds for the directed walk
//     that locates a query point's cell in ~O(√Nseed) steps, and
//     for the basin spanning trees of §4.
//
// Where the paper ran QHull to get the exact 5-D Delaunay graph,
// this reproduction uses a witness-based approximation by default
// (every witness point links its two nearest seeds; the data rows
// themselves are the witnesses, so the graph is densest exactly
// where queries land) and can fall back to the exact Bowyer–Watson
// triangulation of internal/delaunay for small seed sets. Cell
// volumes — the paper's density estimator — are computed by Monte
// Carlo integration instead of exact polytope volume, which is
// unbiased and dimension-independent.
//
// The index is a tool of the science applications (§4: density,
// classification, outliers), built on demand over a catalog table by
// the callers that need it. The serving store does not persist,
// compact or plan it, so a built index never grows: its directory
// always tiles its clustered table exactly.
package voronoi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/delaunay"
	"repro/internal/kdtree"
	"repro/internal/pagestore"
	"repro/internal/table"
	"repro/internal/vec"
)

// Params configures index construction.
type Params struct {
	// NumSeeds is the size of the representative sample (paper: 10K).
	NumSeeds int
	// Seed drives all sampling.
	Seed int64
	// DataWitnesses is how many table rows are used as Delaunay
	// witnesses (0 = all rows).
	DataWitnesses int
	// RandomWitnesses adds uniform witnesses to cover empty regions.
	RandomWitnesses int
	// ExactDelaunay computes the exact Delaunay graph instead of the
	// witness approximation; feasible only for small seed sets in low
	// dimension.
	ExactDelaunay bool
}

// DefaultParams mirrors the paper's setup scaled to the table size:
// √N seeds (capped at 10K), data-witnessed Delaunay graph.
func DefaultParams(numRows uint64, seed int64) Params {
	n := int(math.Sqrt(float64(numRows)))
	if n < 4 {
		n = 4
	}
	if n > 10000 {
		n = 10000
	}
	return Params{NumSeeds: n, Seed: seed, RandomWitnesses: 4 * n}
}

// rowRange is one cell's contiguous rows in the clustered table.
type rowRange struct {
	start table.RowID
	count uint32
}

// Index is a built Voronoi tessellation index.
type Index struct {
	// Seeds holds the seed points in space-filling-curve order; cell
	// i is the Voronoi cell of Seeds[i].
	Seeds []vec.Point
	// Members counts rows per cell.
	Members []int
	// Radius is each cell's bounding-sphere radius: the largest
	// distance from the seed to one of its member rows. Query
	// classification works on these spheres.
	Radius []float64

	tbl      *table.Table
	dir      []rowRange
	adj      [][]int
	searcher *kdtree.PointSearcher
	domain   vec.Box
}

// QueryStats is the per-query cost report.
type QueryStats struct {
	CellsInside  int
	CellsOutside int
	CellsPartial int
	RowsExamined int64
	RowsReturned int64
	Pages        pagestore.Stats
	Duration     time.Duration
}

// Build constructs the index over tb, writing the cell-clustered
// copy under clusteredName. domain must contain all points. The copy
// is a new file in tb's page store, registered with no catalog; a
// store that later writes its manifest keeps the file, so build over
// a throwaway store's table, never a persistent serving store's.
func Build(tb *table.Table, clusteredName string, domain vec.Box, p Params) (*Index, error) {
	tb = tb.Snapshot()
	n := int(tb.NumRows())
	if n == 0 {
		return nil, fmt.Errorf("voronoi: empty table")
	}
	if p.NumSeeds < 2 {
		return nil, fmt.Errorf("voronoi: need >= 2 seeds, got %d", p.NumSeeds)
	}
	if p.NumSeeds > n {
		p.NumSeeds = n
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// 1. Random representative sample of rows as seeds.
	seedRows := rng.Perm(n)[:p.NumSeeds]
	sort.Ints(seedRows)
	seeds := make([]vec.Point, 0, p.NumSeeds)
	{
		ids := make([]table.RowID, len(seedRows))
		for i, r := range seedRows {
			ids[i] = table.RowID(r)
		}
		err := tb.GetMany(ids, func(_ table.RowID, r *table.Record) bool {
			seeds = append(seeds, r.Point())
			return true
		})
		if err != nil {
			return nil, err
		}
	}

	// 2. Space-filling-curve numbering of the cells.
	order := make([]int, len(seeds))
	for i := range order {
		order[i] = i
	}
	keys := make([]uint64, len(seeds))
	for i, s := range seeds {
		keys[i] = zOrder(s, domain)
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	numbered := make([]vec.Point, len(seeds))
	for newID, old := range order {
		numbered[newID] = seeds[old]
	}
	seeds = numbered

	searcher, err := kdtree.NewPointSearcher(seeds)
	if err != nil {
		return nil, err
	}

	ix := &Index{
		Seeds:    seeds,
		Members:  make([]int, len(seeds)),
		Radius:   make([]float64, len(seeds)),
		searcher: searcher,
		domain:   domain.Clone(),
	}

	// 3. Tag every row with its nearest seed and gather cell stats,
	// keeping the rows for the clustered copy.
	recs := make([]table.Record, 0, n)
	cellOf := make([]uint32, n)
	err = tb.ScanClassed().Scan(func(id table.RowID, r *table.Record) bool {
		recs = append(recs, *r)
		p := r.Point()
		c := searcher.NearestOne(p)
		cellOf[id] = uint32(c)
		ix.Members[c]++
		if d := p.Dist(seeds[c]); d > ix.Radius[c] {
			ix.Radius[c] = d
		}
		return true
	})
	if err != nil {
		return nil, err
	}

	// 4. Clustered copy by cell tag (the paper's clustered index): a
	// counting sort on the tags, each cell's rows in table order,
	// written in one pass that sets CellID as each row is appended.
	ix.dir = make([]rowRange, len(seeds))
	next := make([]int, len(seeds))
	start := 0
	for c, m := range ix.Members {
		if m > 0 {
			ix.dir[c] = rowRange{start: table.RowID(start), count: uint32(m)}
		}
		next[c] = start
		start += m
	}
	perm := make([]int32, n)
	for row, c := range cellOf {
		perm[next[c]] = int32(row)
		next[c]++
	}
	clustered, err := table.Create(tb.Store(), clusteredName)
	if err != nil {
		return nil, err
	}
	a := clustered.NewAppender()
	defer a.Close()
	for _, row := range perm {
		rec := recs[row]
		rec.CellID = cellOf[row]
		if err := a.Append(&rec); err != nil {
			return nil, err
		}
	}
	ix.tbl = clustered

	// 5. Delaunay graph of the seeds.
	if p.ExactDelaunay {
		tr, err := delaunay.Build(seeds)
		if err != nil {
			return nil, fmt.Errorf("voronoi: exact Delaunay: %w", err)
		}
		ix.adj = tr.Adjacency()
	} else {
		wg, err := delaunay.NewWitnessGraph(seeds)
		if err != nil {
			return nil, err
		}
		stride := 1
		if p.DataWitnesses > 0 && p.DataWitnesses < n {
			stride = n / p.DataWitnesses
		}
		// Witnesses in clustered order, every stride-th row.
		for i := 0; i < n; i += stride {
			wg.AddWitness(recs[perm[i]].Point())
		}
		if p.RandomWitnesses > 0 {
			wg.AddRandomWitnesses(p.RandomWitnesses, p.Seed+1)
		}
		ix.adj = wg.Adjacency()
	}
	return ix, nil
}

// zOrder interleaves 10 bits per axis of the domain-normalized
// coordinates into a Morton key (supports up to 6 axes).
func zOrder(p vec.Point, domain vec.Box) uint64 {
	const bits = 10
	var key uint64
	dim := len(p)
	coords := make([]uint64, dim)
	for d := 0; d < dim; d++ {
		side := domain.Max[d] - domain.Min[d]
		f := 0.0
		if side > 0 {
			f = (p[d] - domain.Min[d]) / side
		}
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		coords[d] = uint64(f * float64((1<<bits)-1))
	}
	for b := bits - 1; b >= 0; b-- {
		for d := 0; d < dim; d++ {
			key = key<<1 | (coords[d]>>uint(b))&1
		}
	}
	return key
}

// NumCells returns the number of Voronoi cells (seeds).
func (ix *Index) NumCells() int { return len(ix.Seeds) }

// Table returns the cell-clustered table the index serves from.
func (ix *Index) Table() *table.Table { return ix.tbl }

// Neighbors returns the Delaunay neighbour cells of the given cell.
func (ix *Index) Neighbors(cell int) []int { return ix.adj[cell] }

// MeanNeighbors returns the average Delaunay degree — the paper's
// "about 50 neighbouring cells in 5-D versus 10 for
// hyper-rectangles" statistic.
func (ix *Index) MeanNeighbors() float64 {
	if len(ix.adj) == 0 {
		return 0
	}
	var s float64
	for _, ns := range ix.adj {
		s += float64(len(ns))
	}
	return s / float64(len(ix.adj))
}

// CellOf returns the exact cell containing p (nearest seed).
func (ix *Index) CellOf(p vec.Point) int { return ix.searcher.NearestOne(p) }

// CellRows returns the clustered row range [lo, hi) of a cell.
func (ix *Index) CellRows(cell int) (lo, hi table.RowID) {
	r := ix.dir[cell]
	return r.start, r.start + table.RowID(r.count)
}

// DirectedWalk locates the cell containing p by walking the Delaunay
// graph from the start cell, always moving to the neighbour whose
// seed is closest to p, halting at a local minimum — the paper's
// O(√Nseed)-step point location. It returns the final cell and the
// number of steps taken. On an approximate graph the walk can stall
// one cell short of the true nearest seed; callers needing exactness
// use CellOf.
func (ix *Index) DirectedWalk(p vec.Point, start int) (cell, steps int) {
	if start < 0 || start >= len(ix.Seeds) {
		start = 0
	}
	cur := start
	curD := p.Dist2(ix.Seeds[cur])
	for {
		best, bestD := cur, curD
		for _, nb := range ix.adj[cur] {
			if d := p.Dist2(ix.Seeds[nb]); d < bestD {
				best, bestD = nb, d
			}
		}
		if best == cur {
			return cur, steps
		}
		cur, curD = best, bestD
		steps++
	}
}

// QueryPolyhedron answers "all rows inside q" through the cell
// index: each cell's bounding sphere is classified against the
// polyhedron — Inside cells bulk-return their row range, Outside
// cells are rejected outright, Partial cells run the per-point
// filter (§3.4: "for each of the Nseed cells, we determine whether
// it is contained in the query or outside of it ... or if it
// partially intersects, in which case we run the polyhedron SQL
// query").
func (ix *Index) QueryPolyhedron(q vec.Polyhedron) ([]table.RowID, QueryStats, error) {
	start := time.Now()
	before := ix.tbl.Store().Stats()
	var stats QueryStats
	var out []table.RowID
	for c := range ix.Seeds {
		if ix.Members[c] == 0 {
			continue
		}
		lo, hi := ix.CellRows(c)
		switch q.ClassifySphere(ix.Seeds[c], ix.Radius[c]) {
		case vec.Outside:
			stats.CellsOutside++
		case vec.Inside:
			stats.CellsInside++
			err := ix.tbl.ScanRange(lo, hi, func(id table.RowID, r *table.Record) bool {
				stats.RowsExamined++
				out = append(out, id)
				return true
			})
			if err != nil {
				return nil, stats, err
			}
		case vec.Partial:
			stats.CellsPartial++
			err := ix.tbl.ScanRange(lo, hi, func(id table.RowID, r *table.Record) bool {
				stats.RowsExamined++
				if q.Contains(r.Point()) {
					out = append(out, id)
				}
				return true
			})
			if err != nil {
				return nil, stats, err
			}
		}
	}
	stats.RowsReturned = int64(len(out))
	stats.Pages = ix.tbl.Store().Stats().Sub(before)
	stats.Duration = time.Since(start)
	return out, stats, nil
}

// MonteCarloVolumes estimates each cell's volume by uniform sampling
// of the domain: volume_c ≈ Vol(domain) · hits_c / samples. The
// inverse volumes are the paper's parameter-free density estimator.
func (ix *Index) MonteCarloVolumes(samples int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	hits := make([]int, len(ix.Seeds))
	for i := 0; i < samples; i++ {
		p := ix.domain.Sample(rng.Float64)
		hits[ix.searcher.NearestOne(p)]++
	}
	vol := ix.domain.Volume()
	out := make([]float64, len(ix.Seeds))
	for c, h := range hits {
		out[c] = vol * float64(h) / float64(samples)
	}
	return out
}

// Densities returns the member-count density estimate per cell:
// members divided by Monte-Carlo volume. Cells whose volume estimate
// is zero (no Monte-Carlo hit) fall back to using the cell's
// bounding sphere volume, which upper-bounds the true cell volume
// and therefore lower-bounds the density.
func (ix *Index) Densities(volumes []float64) []float64 {
	out := make([]float64, len(ix.Seeds))
	for c := range out {
		v := volumes[c]
		if v <= 0 {
			r := ix.Radius[c]
			if r <= 0 {
				r = 1e-9
			}
			v = ballVolume(len(ix.Seeds[c]), r)
		}
		out[c] = float64(ix.Members[c]) / v
	}
	return out
}

// ballVolume returns the volume of a d-ball of radius r.
func ballVolume(d int, r float64) float64 {
	// V_d = pi^(d/2) / Gamma(d/2+1) * r^d
	return math.Pow(math.Pi, float64(d)/2) / math.Gamma(float64(d)/2+1) * math.Pow(r, float64(d))
}

// Validate checks the structural invariants: the seed arrays are
// mutually consistent, the directory tiles the table exactly with
// ranges that agree with the member counts, every stored cell tag is
// the row's nearest seed, and every row lies within its cell's
// bounding sphere.
func (ix *Index) Validate() error {
	if len(ix.Members) != len(ix.Seeds) || len(ix.Radius) != len(ix.Seeds) || len(ix.dir) != len(ix.Seeds) || len(ix.adj) != len(ix.Seeds) {
		return fmt.Errorf("voronoi: inconsistent arrays: %d seeds, %d members, %d radii, %d ranges, %d adjacency rows",
			len(ix.Seeds), len(ix.Members), len(ix.Radius), len(ix.dir), len(ix.adj))
	}
	var covered uint64
	for c, r := range ix.dir {
		if int(r.count) != ix.Members[c] {
			return fmt.Errorf("voronoi: cell %d directory count %d != members %d", c, r.count, ix.Members[c])
		}
		covered += uint64(r.count)
	}
	if covered != ix.tbl.NumRows() {
		return fmt.Errorf("voronoi: directory covers %d of %d rows", covered, ix.tbl.NumRows())
	}
	var checkErr error
	err := ix.tbl.Scan(func(id table.RowID, rec *table.Record) bool {
		c := int(rec.CellID)
		lo, hi := ix.CellRows(c)
		if id < lo || id >= hi {
			checkErr = fmt.Errorf("voronoi: row %d tagged cell %d outside its range [%d,%d)", id, c, lo, hi)
			return false
		}
		p := rec.Point()
		got := ix.searcher.NearestOne(p)
		if got != c && p.Dist2(ix.Seeds[got]) < p.Dist2(ix.Seeds[c])-1e-12 {
			checkErr = fmt.Errorf("voronoi: row %d tagged cell %d but seed %d is closer", id, c, got)
			return false
		}
		if d := p.Dist(ix.Seeds[c]); d > ix.Radius[c]+1e-9 {
			checkErr = fmt.Errorf("voronoi: row %d outside cell %d bounding sphere", id, c)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return checkErr
}
