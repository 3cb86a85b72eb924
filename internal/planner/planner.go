// Package planner implements cost-based access-path selection for
// polyhedron queries — the component that turns the paper's central
// observation into a decision procedure. Figure 5 shows that no
// single access path wins everywhere: the kd-tree beats the full
// scan only while query selectivity stays below ~0.25, above which
// the sequential scan's cheap pages overtake the index's scattered
// range reads. The seed system hard-coded "kd-tree first"; this
// package instead estimates each query's selectivity cheaply, prices
// every available path in page reads, and picks the winner per
// query.
//
// Selectivity estimation never touches the table. In order of
// preference:
//
//   - kd-tree walk: classify the tree's tight bounding boxes against
//     the polyhedron entirely in memory — the same walk the executor
//     runs, touching at most the tree's ~2√N nodes. Inside subtrees
//     contribute their exact row counts; partial leaves are
//     apportioned by the volume overlap of the query's bounding box
//     with the leaf's tight bounds.
//   - Voronoi spheres: classify every cell's bounding sphere; inside
//     cells count exactly, partial cells count half.
//   - grid layers: each complete layer of the §3.1 layered grid is a
//     uniform random subsample, so the fraction of a layer's rows in
//     cells overlapping the query box estimates the query's mass.
//   - geometric: the volume of the query's bounding box relative to
//     the domain — the last resort when no index exists.
//
// Costs are denominated in sequential-page-read units, the currency
// pagestore.Stats counts: a full scan pays SeqPage per catalog page,
// index paths pay RandPage per page of candidate ranges (scattered
// BETWEEN reads), and every path pays per-node and per-row CPU
// surcharges. The default constants place the fullscan/kd-tree
// crossover near the paper's ~0.25.
package planner

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/pagestore"
	"repro/internal/table"
	"repro/internal/vec"
	"repro/internal/voronoi"
)

// Path is an executable access path for a polyhedron query.
type Path int

// Available access paths. The layered grid is an estimation source,
// not an execution path: it answers sampling queries, not exact
// polyhedron retrieval.
const (
	PathFullScan Path = iota
	PathKdTree
	PathVoronoi
	// PathPrunedScan is a sequential scan that consults the per-page
	// zone maps: pages whose magnitude bounds cannot intersect the
	// query are never read. It runs over the most color-clustered
	// table available (the kd-leaf-ordered copy when built, whose
	// zones are tight), paying SeqPage for overlap pages instead of
	// the kd path's RandPage for scattered ranges.
	PathPrunedScan
	numPaths
)

// String names the path.
func (p Path) String() string {
	switch p {
	case PathFullScan:
		return "fullscan"
	case PathKdTree:
		return "kdtree"
	case PathVoronoi:
		return "voronoi"
	case PathPrunedScan:
		return "pruned-scan"
	}
	return fmt.Sprintf("Path(%d)", int(p))
}

// CostModel holds the constants the cost formulas combine, all
// denominated in sequential-page-read units.
type CostModel struct {
	// SeqPage is the cost of one sequentially read page (full scan).
	SeqPage float64
	// RandPage is the cost of one page read through scattered index
	// range reads. The default ratio RandPage/SeqPage = 4 places the
	// fullscan/kd-tree crossover at selectivity ~0.25, the paper's
	// Figure 5 observation.
	RandPage float64
	// Node is the CPU cost of classifying one tree node or Voronoi
	// cell against the polyhedron.
	Node float64
	// Row is the CPU cost of decoding and testing one row.
	Row float64
	// KNNGrowth is the region-growing expansion factor used by
	// PlanKNN: the expected number of leaves a kNN query examines is
	// about KNNGrowth times the leaves needed to hold k points (the
	// grown region spills across faces into neighbouring cells).
	// Zero means the default.
	KNNGrowth float64
}

// DefaultCostModel returns the constants used throughout: crossover
// at ~0.25 selectivity, CPU terms small but non-zero so degenerate
// plans (classifying thousands of cells to read ten rows) still pay.
func DefaultCostModel() CostModel {
	return CostModel{SeqPage: 1, RandPage: 4, Node: 0.02, Row: 0.002, KNNGrowth: 4}
}

// Calibrate returns a copy of the model with RandPage interpolated
// toward SeqPage by the buffer pool's observed hit ratio: on a hot
// pool a "random" page is a map lookup, not a seek, and the index
// paths should be charged accordingly. Stats are cumulative store
// counters (pagestore.Store.Stats).
func (m CostModel) Calibrate(st pagestore.Stats) CostModel {
	total := st.Hits + st.Misses
	if total == 0 {
		return m
	}
	miss := float64(st.Misses) / float64(total)
	out := m
	out.RandPage = m.SeqPage + (m.RandPage-m.SeqPage)*miss
	if out.RandPage < m.SeqPage {
		out.RandPage = m.SeqPage
	}
	return out
}

// Estimate is a cheap prediction of a query's selectivity.
type Estimate struct {
	// Selectivity is the predicted fraction of catalog rows returned,
	// in [0, 1].
	Selectivity float64
	// Rows is Selectivity scaled to the catalog size.
	Rows float64
	// Method names the estimator that produced the prediction:
	// "kdtree-walk", "voronoi-spheres", "grid-layers" or
	// "bbox-volume".
	Method string
}

// Choice is the planner's verdict for one query.
type Choice struct {
	Path Path
	Est  Estimate
	// Cost holds the predicted cost per path in sequential-page
	// units; +Inf marks paths whose index is not built.
	Cost [numPaths]float64
	// Reason is a one-line human-readable explanation, surfaced
	// through core.Report.PlanReason.
	Reason string
	// KdRanges are the candidate ranges computed while pricing the
	// kd-tree path (nil when no kd-tree is built). The streaming cursor
	// scans them as its tasks, so an auto-planned query classifies the
	// tree exactly once.
	KdRanges []kdtree.Range
	// PrunedPages and PrunedTotal are the zone-map consultation's
	// verdict while pricing the pruned-scan path: how many of the
	// pruned source table's pages the query can possibly touch, out of
	// how many. Computed entirely in memory — no page I/O.
	PrunedPages, PrunedTotal int
}

// BestCost returns the chosen path's predicted cost in sequential-
// page units — the number admission control compares against its
// degradation threshold before any execution happens.
func (c Choice) BestCost() float64 { return c.Cost[c.Path] }

// Planner prices polyhedron queries against the indexes it is given.
// Nil index fields simply exclude the corresponding paths. The zero
// Model is replaced by DefaultCostModel.
type Planner struct {
	Catalog *table.Table
	Kd      *kdtree.Tree
	KdTable *table.Table
	Vor     *voronoi.Index
	Grid    *grid.Index
	Domain  vec.Box
	Model   CostModel
	// MemRows is the number of memtable rows every access path must
	// additionally merge (freshly ingested, not yet compacted into the
	// paged tables). It is a per-row CPU surcharge common to all paths,
	// so it never flips the argmin but keeps BestCost honest for
	// admission control under ingest.
	MemRows int64
}

// Plan estimates the query's selectivity, prices every available
// access path, and returns the cheapest. Catalog must be non-nil.
func (p *Planner) Plan(q vec.Polyhedron) Choice {
	m := p.Model
	if m == (CostModel{}) {
		m = DefaultCostModel()
	}
	n := float64(p.Catalog.NumRows())
	catPages := float64(p.Catalog.NumPages())

	var c Choice
	for i := range c.Cost {
		c.Cost[i] = math.Inf(1)
	}

	// Every path additionally merges the memtable rows (pure CPU —
	// they are already in memory). Common to all paths, so it never
	// flips the choice, but BestCost stays honest under ingest.
	memCost := float64(p.MemRows) * m.Row

	// Full scan: every catalog page sequentially, every row tested.
	c.Cost[PathFullScan] = catPages*m.SeqPage + n*m.Row + memCost

	// kd-tree: price from the same range classification the executor
	// will run — inside + partial rows as scattered pages, plus the
	// unindexed tail (rows minor compactions appended past the tree)
	// as one sequential filter range.
	var kdRanges []kdtree.Range
	if p.Kd != nil {
		var walk kdtree.Walk
		kdRanges, walk = p.Kd.CollectRanges(q, kdtree.PruneTightBounds)
		c.KdRanges = kdRanges
		var candRows int64
		for _, r := range kdRanges {
			candRows += r.Rows()
		}
		var tailRows int64
		if p.KdTable != nil && p.KdTable.NumRows() > p.Kd.NumRows {
			tailRows = int64(p.KdTable.NumRows() - p.Kd.NumRows)
		}
		pages := pagesFor(candRows)
		c.Cost[PathKdTree] = pages*m.RandPage + float64(walk.NodesVisited)*m.Node + float64(candRows)*m.Row +
			pagesFor(tailRows)*m.SeqPage + float64(tailRows)*m.Row + memCost
	}

	// Voronoi: classify every cell's bounding sphere in memory.
	var vorInsideRows, vorPartialRows int64
	if p.Vor != nil {
		cells := 0
		for cell := range p.Vor.Seeds {
			cells++
			lo, hi := p.Vor.CellRows(cell)
			rows := int64(hi - lo)
			if rows == 0 {
				continue
			}
			switch q.ClassifySphere(p.Vor.Seeds[cell], p.Vor.Radius[cell]) {
			case vec.Inside:
				vorInsideRows += rows
			case vec.Partial:
				vorPartialRows += rows
			}
		}
		cand := vorInsideRows + vorPartialRows
		var tailRows int64
		if t := p.Vor.Table().NumRows(); t > p.Vor.CoveredRows() {
			tailRows = int64(t - p.Vor.CoveredRows())
		}
		c.Cost[PathVoronoi] = pagesFor(cand)*m.RandPage + float64(cells)*m.Node + float64(cand)*m.Row +
			pagesFor(tailRows)*m.SeqPage + float64(tailRows)*m.Row + memCost
	}

	// Pruned scan: classify every page's zone map against the query —
	// pure CPU, no I/O — then price the surviving pages sequentially.
	// On the kd-clustered table the zones are tight, so a selective
	// cut's overlap set is a small fraction of the file read at
	// SeqPage, versus the kd path's scattered ranges at RandPage.
	if src := p.PrunedScanSource(); src != nil && len(q.Planes) > 0 {
		if pred, err := table.CompilePagePred(q.Planes); err == nil {
			zm := src.ZoneMaps()
			pages, rows := prunedOverlap(zm, src.NumRows(), pred)
			// Totals derive from the published row bound, not
			// zm.NumPages(): an in-flight staged append may already have
			// widened zones for pages no reader can see yet.
			total := src.NumPages()
			c.PrunedPages, c.PrunedTotal = pages, total
			c.Cost[PathPrunedScan] = float64(pages)*m.SeqPage + float64(total)*m.Node + float64(rows)*m.Row + memCost
		}
	}

	c.Est = p.estimate(q, kdRanges, vorInsideRows, vorPartialRows, n)

	best := PathFullScan
	for path := PathFullScan; path < numPaths; path++ {
		if c.Cost[path] < c.Cost[best] {
			best = path
		}
	}
	c.Path = best
	c.Reason = reason(c)
	return c
}

// estimate produces the selectivity prediction, preferring the
// estimator backed by the most structure.
func (p *Planner) estimate(q vec.Polyhedron, kdRanges []kdtree.Range, vorInside, vorPartial int64, n float64) Estimate {
	if n == 0 {
		return Estimate{Method: "empty"}
	}
	bb := q.BoundingBox(p.Domain)
	switch {
	case p.Kd != nil:
		var rows float64
		for _, r := range kdRanges {
			if !r.Filter {
				rows += float64(r.Rows())
				continue
			}
			rows += float64(r.Rows()) * overlapFraction(bb, r.Bounds)
		}
		return mkEstimate(rows, n, "kdtree-walk")
	case p.Vor != nil:
		return mkEstimate(float64(vorInside)+0.5*float64(vorPartial), n, "voronoi-spheres")
	case p.Grid != nil:
		if frac, ok := gridBoxMass(p.Grid, bb); ok {
			return mkEstimate(frac*n, n, "grid-layers")
		}
	}
	frac := 0.0
	if dv := p.Domain.Volume(); dv > 0 {
		frac = bb.Intersect(p.Domain).Volume() / dv
	}
	return mkEstimate(frac*n, n, "bbox-volume")
}

func mkEstimate(rows, n float64, method string) Estimate {
	sel := rows / n
	if sel > 1 {
		sel = 1
	}
	if sel < 0 {
		sel = 0
	}
	return Estimate{Selectivity: sel, Rows: sel * n, Method: method}
}

// overlapFraction returns the fraction of box b covered by the query
// bounding box bb, clamped to [0, 1]. Degenerate boxes count as
// fully covered — the conservative verdict.
func overlapFraction(bb, b vec.Box) float64 {
	vol := b.Volume()
	if vol <= 0 || b.IsEmpty() {
		return 1
	}
	f := bb.Intersect(b).Volume() / vol
	if f > 1 {
		return 1
	}
	return f
}

// gridBoxMass estimates the fraction of all rows whose projection
// falls in the (full-dimensional) box bb, by consulting the layered
// grid's cell directory. Returns ok=false when the grid's projection
// is not known to select the leading axes (a custom ProjFunc, e.g. a
// PCA projection), since bb cannot then be projected onto the grid's
// space.
func gridBoxMass(ix *grid.Index, bb vec.Box) (float64, bool) {
	d := ix.ProjDim()
	if !ix.AxisProjected() || d > bb.Dim() {
		return 0, false
	}
	box := vec.Box{Min: bb.Min[:d], Max: bb.Max[:d]}
	frac, used := ix.EstimateBoxMass(box, 4096)
	return frac, used > 0
}

// KNNChoice is the planner's verdict for a k-nearest-neighbour
// query: region-growing through the kd-tree versus a brute-force
// scan of the whole table. Mirroring the polyhedron planner's ~0.25
// selectivity crossover, the index wins while the expected grown
// region stays a small fraction of the table and loses once k
// approaches N (the region covers most leaves, paid at scattered-
// page prices plus per-leaf tree work).
type KNNChoice struct {
	// UseIndex is true when region-growing is predicted cheaper.
	UseIndex bool
	// CostIndex and CostBrute are the predicted costs in sequential-
	// page units; CostIndex is +Inf when no kd-tree is built.
	CostIndex, CostBrute float64
	// ExpectedLeaves is the model's leaf-examination estimate for the
	// region-growing path (0 when no kd-tree is built).
	ExpectedLeaves float64
	// Reason is a one-line human-readable explanation, surfaced
	// through core.Report.PlanReason.
	Reason string
}

// BestCost returns the chosen path's predicted cost in sequential-
// page units, the pre-admission price of the query.
func (c KNNChoice) BestCost() float64 {
	if c.UseIndex {
		return c.CostIndex
	}
	return c.CostBrute
}

// PlanKNN prices a kNN query with neighbourhood size k against the
// catalog. The region-growing model: a query must examine enough
// leaves to hold k points, inflated by the KNNGrowth spill factor;
// each examined leaf costs its pages at RandPage plus a tree descent
// (Node per level) plus Row per point examined. Brute force pays one
// SeqPage per catalog page plus Row per row.
func (p *Planner) PlanKNN(k int) KNNChoice {
	m := p.Model
	if m == (CostModel{}) {
		m = DefaultCostModel()
	}
	if m.KNNGrowth <= 0 {
		m.KNNGrowth = DefaultCostModel().KNNGrowth
	}
	if k < 1 {
		k = 1
	}
	n := float64(p.Catalog.NumRows())
	catPages := float64(p.Catalog.NumPages())

	memCost := float64(p.MemRows) * m.Row
	c := KNNChoice{
		CostBrute: catPages*m.SeqPage + n*m.Row + memCost,
		CostIndex: math.Inf(1),
	}
	if p.Kd != nil && p.Kd.NumLeaves() > 0 && n > 0 {
		leaves := float64(p.Kd.NumLeaves())
		rowsPerLeaf := n / leaves
		expLeaves := math.Ceil(m.KNNGrowth * (float64(k)/rowsPerLeaf + 1))
		if expLeaves > leaves {
			expLeaves = leaves
		}
		expRows := expLeaves * rowsPerLeaf
		// Each admitted leaf costs a root-to-leaf descent worth of
		// node classifications in the thin-slab walk.
		nodes := expLeaves * float64(p.Kd.Levels+1)
		c.ExpectedLeaves = expLeaves
		var tailRows int64
		if p.KdTable != nil && p.KdTable.NumRows() > p.Kd.NumRows {
			tailRows = int64(p.KdTable.NumRows() - p.Kd.NumRows)
		}
		c.CostIndex = pagesFor(int64(expRows))*m.RandPage + nodes*m.Node + expRows*m.Row +
			pagesFor(tailRows)*m.SeqPage + float64(tailRows)*m.Row + memCost
	}
	c.UseIndex = c.CostIndex < c.CostBrute
	if c.UseIndex {
		c.Reason = fmt.Sprintf("knn k=%d: region-grow %.1f (≈%.0f leaves) beats bruteforce %.1f",
			k, c.CostIndex, c.ExpectedLeaves, c.CostBrute)
	} else if math.IsInf(c.CostIndex, 1) {
		c.Reason = fmt.Sprintf("knn k=%d: bruteforce %.1f (kd-tree n/a)", k, c.CostBrute)
	} else {
		c.Reason = fmt.Sprintf("knn k=%d: bruteforce %.1f beats region-grow %.1f (≈%.0f leaves)",
			k, c.CostBrute, c.CostIndex, c.ExpectedLeaves)
	}
	return c
}

// PrunedScanSource returns the table a pruned scan would run over:
// the kd-leaf-clustered copy when it is built and carries complete
// zone maps (clustering in color space makes zones tight), otherwise
// the catalog itself, otherwise nil (no zone maps available — e.g. a
// database persisted without sidecars). The executor must use the
// same selection so the plan's pricing matches what runs.
func (p *Planner) PrunedScanSource() *table.Table {
	for _, t := range []*table.Table{p.KdTable, p.Catalog} {
		if t == nil || t.NumRows() == 0 {
			continue
		}
		// Zones widen before rows publish on the ingest path, so the
		// sidecar may momentarily cover more pages than readers can
		// see; covering at least the published pages is what soundness
		// requires.
		if zm := t.ZoneMaps(); zm != nil && zm.NumPages() >= t.NumPages() {
			return t
		}
	}
	return nil
}

// prunedOverlap classifies every page zone against the predicate and
// returns how many pages survive and how many rows they hold. The
// page total derives from the published row count, never from the
// sidecar (which may already cover staged-but-unpublished pages).
func prunedOverlap(zm *table.ZoneMaps, rows uint64, pred *table.PagePred) (pages int, overlapRows int64) {
	total := int((rows + table.RecordsPerPage - 1) / table.RecordsPerPage)
	for pg := 0; pg < total; pg++ {
		z, ok := zm.Page(pg)
		if !ok || pred.Classify(&z) == vec.Outside {
			continue
		}
		pages++
		inPage := int64(table.RecordsPerPage)
		if pg == total-1 {
			if last := int64(rows) - int64(pg)*table.RecordsPerPage; last < inPage {
				inPage = last
			}
		}
		overlapRows += inPage
	}
	return pages, overlapRows
}

// pagesFor converts a row count to page reads, rounding up.
func pagesFor(rows int64) float64 {
	if rows <= 0 {
		return 0
	}
	return math.Ceil(float64(rows) / float64(table.RecordsPerPage))
}

// reason renders the verdict as one line, e.g.
// "est sel 0.62 (kdtree-walk); fullscan 494.0 beats kdtree 1676.3, voronoi 1821.0".
func reason(c Choice) string {
	s := fmt.Sprintf("est sel %.3f (%s); %s %.1f", c.Est.Selectivity, c.Est.Method, c.Path, c.Cost[c.Path])
	losers := ""
	for path := PathFullScan; path < numPaths; path++ {
		if path == c.Path {
			continue
		}
		if losers != "" {
			losers += ", "
		}
		if math.IsInf(c.Cost[path], 1) {
			losers += fmt.Sprintf("%s n/a", path)
		} else {
			losers += fmt.Sprintf("%s %.1f", path, c.Cost[path])
		}
	}
	if losers != "" {
		s += " beats " + losers
	}
	return s
}
