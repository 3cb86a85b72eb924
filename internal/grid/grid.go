// Package grid implements the paper's layered uniform grid index
// (§3.1): the server-side structure that lets the adaptive
// visualization client ask "give me n points from this query box
// that follow the underlying distribution" and get them back reading
// little more than the n points themselves.
//
// Construction follows the paper exactly:
//
//  1. every row receives a RandomID — its rank in a random
//     permutation of the table;
//  2. the first Base ranks form layer 1, the next Base·G ranks layer
//     2, then Base·G² and so on, where G = 2^projDim so the expected
//     points-per-cell stays constant across layers;
//  3. layer l is cut by a uniform grid of 2^l cells per axis over the
//     (projected) visualization space, and each row stores its cell
//     code in ContainedBy.
//
// Because each layer is a uniform random subsample, the union of the
// first k layers is itself a uniform subsample — so serving a query
// box from layers 1, 2, ... until n points accumulate yields a
// sample that follows the underlying density, at every zoom level.
//
// The reproduction makes the I/O claim measurable by physically
// clustering the index table on (Layer, ContainedBy): an in-memory
// directory maps each non-empty cell to its contiguous row range, so
// a query touches exactly the pages of the cells intersecting the
// box.
package grid

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/pagestore"
	"repro/internal/table"
	"repro/internal/vec"
)

// Params configures index construction.
type Params struct {
	// Base is the size of layer 1 (the paper uses 1024).
	Base int
	// ProjDim is the dimensionality of the visualization space, the
	// leading ProjDim magnitude axes (the paper uses 3). Layer sizes
	// grow by 2^ProjDim per layer.
	ProjDim int
	// Domain bounds the projected data; the layer grids tile it.
	Domain vec.Box
	// Seed drives the random permutation.
	Seed int64
	// MaxLayers caps the number of layers (0 = as many as needed).
	MaxLayers int
}

// DefaultParams mirrors the paper: Base 1024, 3-D projection.
func DefaultParams(domain vec.Box, seed int64) Params {
	return Params{Base: 1024, ProjDim: 3, Domain: domain, Seed: seed}
}

// layerInfo describes one layer's grid.
type layerInfo struct {
	res    int // cells per axis = 2^layer
	points int // rows assigned to this layer
}

// cellKey identifies a grid cell across layers.
type cellKey struct {
	layer int
	code  uint64
}

// rowRange is a contiguous row interval [start, start+count) in the
// clustered table.
type rowRange struct {
	start table.RowID
	count uint32
}

// Index is a built layered uniform grid over a clustered copy of the
// base table.
type Index struct {
	params Params
	// tbl is the clustered copy ordered by (Layer, ContainedBy).
	tbl    *table.Table
	layers []layerInfo
	dir    map[cellKey]rowRange
	// first is layer 1 decoded into memory, read-only (FirstLayer).
	first *table.Sample
}

// SampleStats reports the cost of one adaptive sample, the §3.1
// evaluation currency.
type SampleStats struct {
	Returned     int   // points delivered to the client
	LayersUsed   int   // deepest layer consulted
	CellsScanned int   // cell ranges read
	RowsExamined int64 // rows decoded (inside cells intersecting the box)
	Pages        pagestore.Stats
	Duration     time.Duration
}

// Build constructs the index: assigns RandomID/Layer/ContainedBy,
// writes the clustered copy under clusteredName, and builds the cell
// directory.
//
// It reads the table twice in page order — the magnitudes, to widen
// the domain, then the rows into memory — and writes the clustered
// copy in one sequential pass that sets each row's index columns as it
// is appended. The clustered order is a sort of one packed key per
// row, cell code above RandomID, within each layer's RandomID range.
func Build(tb *table.Table, clusteredName string, p Params) (*Index, error) {
	if p.Base < 1 {
		return nil, fmt.Errorf("grid: Base must be >= 1, got %d", p.Base)
	}
	if p.ProjDim < 1 || p.ProjDim > table.Dim {
		return nil, fmt.Errorf("grid: ProjDim %d out of [1,%d]", p.ProjDim, table.Dim)
	}
	if p.Domain.Dim() != p.ProjDim {
		return nil, fmt.Errorf("grid: domain dim %d != ProjDim %d", p.Domain.Dim(), p.ProjDim)
	}
	tb = tb.Snapshot()
	n := int(tb.NumRows())
	if n == 0 {
		return nil, fmt.Errorf("grid: empty table")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("grid: %d rows exceed the build's 31-bit RandomIDs", n)
	}

	// Random permutation: row i gets RandomID rank[i].
	rank := make([]uint32, n)
	for row, r := range rand.New(rand.NewSource(p.Seed)).Perm(n) {
		rank[row] = uint32(r)
	}

	// Cells are assigned once the domain covers every row's projection:
	// a first read widens it; the second copies the rows and packs, in
	// keys[r], the cell code of the row with RandomID r — in the grid of
	// the layer r falls in — above r.
	p.Domain = p.Domain.Clone()
	err := tb.ScanClassed().ScanMags(func(_ table.RowID, m *[table.Dim]float64) bool {
		p.Domain.ExtendPoint(m[:p.ProjDim])
		return true
	})
	if err != nil {
		return nil, err
	}
	growth := 1 << uint(p.ProjDim)
	layers := planLayers(n, p.Base, growth, p.MaxLayers)
	recs := make([]table.Record, 0, n)
	keys := make([]uint64, n)
	var m [table.Dim]float64
	var cellErr error
	err = tb.ScanClassed().Scan(func(row table.RowID, rec *table.Record) bool {
		recs = append(recs, *rec)
		r := int(rank[row])
		layer := layerOfRank(r, p.Base, growth, len(layers))
		m = mags(rec)
		code, err := cellCode(m[:p.ProjDim], p.Domain, layers[layer-1].res)
		if err != nil {
			cellErr = fmt.Errorf("grid: row %d: %w", row, err)
			return false
		}
		if code > math.MaxUint32 {
			cellErr = fmt.Errorf("grid: layer %d cell code %d exceeds the uint32 ContainedBy", layer, code)
			return false
		}
		keys[r] = code<<32 | uint64(r)
		return true
	})
	if err = cmp.Or(err, cellErr); err != nil {
		return nil, err
	}
	byRank := invert(rank)
	// Layer l holds one contiguous RandomID range, so the clustered
	// order — by (layer, cell code), ties by RandomID so each cell's
	// prefix is itself a random subsample — sorts each layer's keys on
	// their own.
	lo := 0
	for _, info := range layers {
		slices.Sort(keys[lo : lo+info.points])
		lo += info.points
	}

	// Write the clustered copy with its index columns, and the
	// directory of contiguous cell ranges.
	clustered, err := table.Create(tb.Store(), clusteredName)
	if err != nil {
		return nil, err
	}
	a := clustered.NewAppender()
	defer a.Close()
	dir := make(map[cellKey]rowRange)
	pos, cellStart := 0, 0
	// Rows are gathered a batch at a time: the tight copy loop keeps
	// many of its scattered reads in flight at once.
	var batch [64]table.Record
	for l, info := range layers {
		span := keys[pos : pos+info.points]
		for lo := 0; lo < len(span); lo += len(batch) {
			chunk := span[lo:min(lo+len(batch), len(span))]
			for j, key := range chunk {
				batch[j] = recs[byRank[uint32(key)]]
			}
			for j, key := range chunk {
				rec := &batch[j]
				rec.RandomID, rec.Layer, rec.ContainedBy = uint32(key), uint16(l+1), uint32(key>>32)
				if err := a.Append(rec); err != nil {
					return nil, err
				}
				pos++
				if i := lo + j + 1; i == len(span) || span[i]>>32 != key>>32 {
					dir[cellKey{layer: l + 1, code: key >> 32}] = rowRange{start: table.RowID(cellStart), count: uint32(pos - cellStart)}
					cellStart = pos
				}
			}
		}
	}
	return (&Index{params: p, tbl: clustered, layers: layers, dir: dir}).readFirstLayer()
}

// readFirstLayer loads layer 1 — its rows lead the clustered table,
// a few pages — into memory; Build and OpenExisting both end here.
func (ix *Index) readFirstLayer() (*Index, error) {
	var err error
	if ix.first, err = ix.tbl.ReadSample(ix.layers[0].points); err != nil {
		return nil, fmt.Errorf("grid: read layer 1: %w", err)
	}
	return ix, nil
}

// FirstLayer returns layer 1, a uniform random sample of the rows the
// index was built over (§3.1): the planner's selectivity sample,
// shared read-only. Nil on a nil index.
func (ix *Index) FirstLayer() *table.Sample {
	if ix == nil {
		return nil
	}
	return ix.first
}

// invert turns the permutation p, i → p[i], into its inverse in place
// and returns it: no second n-entry array beside the rows a build
// holds. Each cycle is walked once, its entries marked done in the top
// bit, which a permutation of fewer than 2^31 entries leaves free.
func invert(p []uint32) []uint32 {
	const done = 1 << 31
	for start := range p {
		if p[start]&done != 0 {
			continue
		}
		prev, cur := uint32(start), p[start]
		for cur != uint32(start) {
			next := p[cur]
			p[cur] = prev | done
			prev, cur = cur, next
		}
		p[start] = prev | done
	}
	for i := range p {
		p[i] &^= done
	}
	return p
}

// planLayers returns the layer plan for n rows: layer l holds
// base·growth^(l-1) rows, except the last which takes the remainder.
func planLayers(n, base, growth, maxLayers int) []layerInfo {
	var layers []layerInfo
	remaining := n
	size := base
	for l := 1; remaining > 0; l++ {
		pts := size
		if pts > remaining {
			pts = remaining
		}
		if maxLayers > 0 && l == maxLayers {
			pts = remaining
		}
		layers = append(layers, layerInfo{res: 1 << uint(l), points: pts})
		remaining -= pts
		size *= growth
	}
	return layers
}

// layerOfRank returns the 1-based layer of a RandomID rank under the
// geometric layer plan, clamped to the deepest layer.
func layerOfRank(rank, base, growth, numLayers int) int {
	start := 0
	size := base
	for l := 1; ; l++ {
		if rank < start+size || l == numLayers {
			return l
		}
		start += size
		size *= growth
	}
}

// cellCode computes the row-major cell index of the projected point
// within the layer grid of the given per-axis resolution.
func cellCode(p vec.Point, domain vec.Box, res int) (uint64, error) {
	var code uint64
	for d := 0; d < len(p); d++ {
		side := domain.Max[d] - domain.Min[d]
		if side <= 0 {
			return 0, fmt.Errorf("degenerate domain axis %d", d)
		}
		c := int((p[d] - domain.Min[d]) / side * float64(res))
		if c < 0 || c > res {
			// A copy, so p itself never escapes: callers pass slices of
			// arrays on their stacks.
			return 0, fmt.Errorf("point %v outside grid domain %v", p.Clone(), domain)
		}
		if c == res { // exact upper boundary folds into the last cell
			c = res - 1
		}
		code = code*uint64(res) + uint64(c)
	}
	return code, nil
}

// cellBox returns the geometric box of the coded cell.
func cellBox(code uint64, domain vec.Box, res int, dim int) vec.Box {
	coords := make([]int, dim)
	for d := dim - 1; d >= 0; d-- {
		coords[d] = int(code % uint64(res))
		code /= uint64(res)
	}
	min := make(vec.Point, dim)
	max := make(vec.Point, dim)
	for d := 0; d < dim; d++ {
		side := (domain.Max[d] - domain.Min[d]) / float64(res)
		min[d] = domain.Min[d] + float64(coords[d])*side
		max[d] = min[d] + side
	}
	return vec.Box{Min: min, Max: max}
}

// intersectingCells enumerates the codes of layer-grid cells that
// intersect the query box, without touching cells outside it — the
// "trivially computes which of the 2×2×2 cells intersects q" step.
func intersectingCells(q vec.Box, domain vec.Box, res, dim int) []uint64 {
	lo := make([]int, dim)
	hi := make([]int, dim)
	for d := 0; d < dim; d++ {
		side := (domain.Max[d] - domain.Min[d]) / float64(res)
		l := int((q.Min[d] - domain.Min[d]) / side)
		h := int((q.Max[d] - domain.Min[d]) / side)
		if l < 0 {
			l = 0
		}
		if h >= res {
			h = res - 1
		}
		if l > h {
			return nil
		}
		lo[d], hi[d] = l, h
	}
	// Row-major enumeration of the hyper-rectangle of cells.
	var out []uint64
	coords := make([]int, dim)
	copy(coords, lo)
	for {
		var code uint64
		for d := 0; d < dim; d++ {
			code = code*uint64(res) + uint64(coords[d])
		}
		out = append(out, code)
		d := dim - 1
		for d >= 0 {
			coords[d]++
			if coords[d] <= hi[d] {
				break
			}
			coords[d] = lo[d]
			d--
		}
		if d < 0 {
			return out
		}
	}
}

// shuffleCodes applies a deterministic Fisher–Yates permutation.
func shuffleCodes(codes []uint64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := len(codes) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		codes[i], codes[j] = codes[j], codes[i]
	}
}

// NumLayers returns how many layers the index built.
func (ix *Index) NumLayers() int { return len(ix.layers) }

// Params returns the build parameters, so a full compaction can
// rebuild the index over the enlarged table with identical geometry
// (they round-trip through persistence, unlike most index params).
func (ix *Index) Params() Params { return ix.params }

// LayerPoints returns the number of rows on the given 1-based layer.
func (ix *Index) LayerPoints(layer int) int { return ix.layers[layer-1].points }

// Table returns the clustered table the index serves from.
func (ix *Index) Table() *table.Table { return ix.tbl }

// Sample returns n points of the table whose projection falls inside
// the query box q — fewer only when the box itself holds fewer —
// chosen so the sample follows the underlying density: complete
// layers are uniform subsamples, and the final partial layer
// contributes a randomly chosen set of cells with rank-prefix rows.
// It collects what SampleStream delivers.
func (ix *Index) Sample(q vec.Box, n int) ([]table.Record, SampleStats, error) {
	var out []table.Record
	stats, err := ix.SampleStream(q, n, func(r *table.Record) bool {
		out = append(out, *r)
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// SampleStream is the streaming form of Sample the paper sketches
// ("when points from the first layer are available, start sending them
// back to the client as we fetch more points from layer 2"): records
// are delivered through yield as each cell is read, layer by layer, so
// a client can start rendering before the request completes. yield
// returning false cancels the stream. The record pointer passed to
// yield is reused; copy to retain.
func (ix *Index) SampleStream(q vec.Box, n int, yield func(*table.Record) bool) (SampleStats, error) {
	if q.Dim() != ix.params.ProjDim {
		return SampleStats{}, fmt.Errorf("grid: query box dim %d != ProjDim %d", q.Dim(), ix.params.ProjDim)
	}
	start := time.Now()
	// Per-call accounting scope: the reported pages are exactly this
	// sample's, not a diff of store-global counters that concurrent
	// queries also move, and exact under a cancelled stream.
	scope := ix.tbl.Store().Scoped()
	tbl := ix.tbl.Scoped(scope)
	var stats SampleStats
	delivered := 0
	cancelled := false

	for l := 1; l <= len(ix.layers) && !cancelled; l++ {
		res := ix.layers[l-1].res
		codes := intersectingCells(q, ix.params.Domain, res, ix.params.ProjDim)
		// Visit cells in a deterministic shuffled order so that when
		// the target count is reached mid-layer, the served cells are a
		// random subset of the layer — keeping the sample unbiased at
		// cell granularity. (The paper fetches "n − r" points from the
		// final layer in storage order, which skews toward the low
		// cell codes; shuffling removes that skew for free.)
		shuffleCodes(codes, ix.params.Seed+int64(l))
		for _, code := range codes {
			rng, ok := ix.dir[cellKey{layer: l, code: code}]
			if !ok {
				continue
			}
			// Cells entirely inside q skip the per-point test.
			cb := cellBox(code, ix.params.Domain, res, ix.params.ProjDim)
			wholeCell := q.ContainsBox(cb)
			stats.CellsScanned++
			err := tbl.ScanRange(rng.start, rng.start+table.RowID(rng.count), func(id table.RowID, r *table.Record) bool {
				stats.RowsExamined++
				if wholeCell || ix.inBox(r, q) {
					if !yield(r) {
						cancelled = true
						return false
					}
					delivered++
				}
				// Rows within a cell are ordered by RandomID rank, so a
				// prefix is itself a uniform subsample: stopping exactly
				// at n keeps the sample fair.
				return delivered < n
			})
			if err != nil {
				return stats, err
			}
			if delivered >= n || cancelled {
				break
			}
		}
		stats.LayersUsed = l
		if delivered >= n {
			break
		}
	}

	stats.Returned = delivered
	stats.Pages = scope.Stats()
	stats.Duration = time.Since(start)
	return stats, nil
}

// inBox tests a record's projection against the query box.
func (ix *Index) inBox(r *table.Record, q vec.Box) bool {
	m := mags(r)
	return q.Contains(m[:ix.params.ProjDim])
}

// mags returns a record's magnitudes as float64s; the grid projects
// them by slicing the leading ProjDim axes.
func mags(r *table.Record) (m [table.Dim]float64) {
	for i, v := range r.Mags {
		m[i] = float64(v)
	}
	return m
}

// ValidateStructure checks the in-memory invariants without any
// table I/O: layer sizes match the plan and directory ranges cover
// the table exactly. The cold-open path runs it on every load (a
// full Validate would scan the whole table, defeating the point of
// opening without construction I/O).
func (ix *Index) ValidateStructure() error {
	if len(ix.layers) == 0 {
		return fmt.Errorf("grid: no layers")
	}
	total := 0
	for _, l := range ix.layers {
		total += l.points
	}
	// The plan and directory may cover a prefix of the table — a store
	// written while minor compactions still appended to the grid copy
	// carries such an unindexed tail, invisible to sampling — but can
	// never cover more rows than the table holds.
	if total > int(ix.tbl.NumRows()) {
		return fmt.Errorf("grid: layer plan covers %d rows, table has %d", total, ix.tbl.NumRows())
	}
	covered := uint64(0)
	for key, r := range ix.dir {
		if key.layer < 1 || key.layer > len(ix.layers) {
			return fmt.Errorf("grid: directory has invalid layer %d", key.layer)
		}
		covered += uint64(r.count)
	}
	if covered > ix.tbl.NumRows() {
		return fmt.Errorf("grid: directory covers %d rows, table has %d", covered, ix.tbl.NumRows())
	}
	if covered != uint64(total) {
		return fmt.Errorf("grid: directory covers %d rows, layer plan %d", covered, total)
	}
	return nil
}

// CoveredRows returns how many clustered rows the layer directory
// covers — the prefix the index was built over. Nothing appends past
// it now; a tail left by a store whose minor compactions did is
// excluded from sampling until a full compaction rebuilds the grid.
func (ix *Index) CoveredRows() uint64 {
	var covered uint64
	for _, r := range ix.dir {
		covered += uint64(r.count)
	}
	return covered
}

// Validate checks the structural invariants of the index: layer
// sizes match the plan, directory ranges tile the table exactly, and
// every row's stored cell code agrees with its geometry. Tests and
// the experiment harness call it after building.
func (ix *Index) Validate() error {
	if err := ix.ValidateStructure(); err != nil {
		return err
	}
	// Spot-check stored codes against geometry.
	covered := table.RowID(ix.CoveredRows())
	var checkErr error
	err := ix.tbl.Scan(func(id table.RowID, r *table.Record) bool {
		if id >= covered {
			// Unindexed tail (see ValidateStructure): its rows carry
			// no layer/cell codes.
			return true
		}
		layer := int(r.Layer)
		if layer < 1 || layer > len(ix.layers) {
			checkErr = fmt.Errorf("grid: row %d has layer %d", id, layer)
			return false
		}
		m := mags(r)
		code, err := cellCode(m[:ix.params.ProjDim], ix.params.Domain, ix.layers[layer-1].res)
		if err != nil {
			checkErr = err
			return false
		}
		if code != uint64(r.ContainedBy) {
			checkErr = fmt.Errorf("grid: row %d stored cell %d, geometry says %d", id, r.ContainedBy, code)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return checkErr
}
