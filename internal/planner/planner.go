// Package planner plans and prices polyhedron queries — a WHERE is a
// set of convex clauses, and the set is the unit planned: one walk, one
// range list, one price however many clauses. The paper's Figure 5
// trade-off (the index wins only while a query stays selective) does
// not survive the clustering below: the index scan reads a subset of
// the pages the full scan reads, in the same ascending order, so it
// never reads more and there is no path to choose. A WHERE always runs
// the index scan; this package estimates its selectivity cheaply and
// prices it in page reads for admission control.
//
// There is one index scan. The catalog, clustered on the kd-tree's
// leaves, is one file read in ascending page order — by the full scan
// too, which reads every page of it; the kd-tree's tight bounding boxes
// (§3.2) and the per-page zone maps over that same file are the
// coarse and the fine level of one zone hierarchy. Plan walks the tree
// once: a node Outside every clause prunes its whole subtree of pages,
// a node Inside any clause becomes one unfiltered contiguous range, and
// Partial leaves —
// together with the unindexed tail minor compactions append past the
// tree, or the whole catalog when no tree is built — become filter
// ranges whose pages are classified against their zones. Adjacent
// ranges of one kind coalesce and every range is cut at page
// boundaries (the ragged first and last page of an unfiltered run join
// the filter ranges), so no page is fetched twice. The executor scans
// exactly the ranges the plan priced.
//
// Selectivity is counted, not guessed: the WHERE is evaluated over the
// grid's layer 1 (§3.1's uniform random sample of the catalog, held in
// memory) by the scan's own strip arithmetic, and the count scaled to
// the catalog is clamped to what the plan proves — every row of an
// unfiltered range matches, and no match lies off the pages the scan
// fetches. Without a sample the estimate is that upper bound.
//
// Costs are denominated in sequential-page-read units, the currency
// pagestore.Stats counts. The index scan reads one file in ascending
// order, so it pays SeqPage per page it fetches, plus per-node,
// per-zone and per-row CPU surcharges; RandPage prices only the kNN's
// kd walk, whose visiting order is not page order.
package planner

import (
	"fmt"
	"math"

	"repro/internal/kdtree"
	"repro/internal/table"
	"repro/internal/vec"
)

// CostModel holds the constants the cost formulas combine, all
// denominated in sequential-page-read units.
type CostModel struct {
	// SeqPage is the cost of one page read in ascending file order:
	// every fetched page of the index scan or of a whole-table read.
	SeqPage float64
	// RandPage is the cost of one page read out of file order — the
	// kNN's kd walk hops between leaves by distance, not by page
	// number.
	RandPage float64
	// Node is the CPU cost of classifying one tree node or one page
	// zone against the polyhedron.
	Node float64
	// Row is the CPU cost of decoding and testing one row.
	Row float64
	// KNNGrowth is the spill factor used by PlanKNN: the expected
	// number of leaves a kNN query expands is about KNNGrowth times the
	// leaves needed to hold k points (the k-th distance reaches across
	// faces into neighbouring cells).
	KNNGrowth float64
}

// FullScanCost prices a scan of rows rows in file order: ⌈rows /
// RecordsPerPage⌉ sequential page reads, every row decoded and tested.
// The WHERE-less statement, admission estimates and the shard
// coordinator price a whole-table read with it.
func (m CostModel) FullScanCost(rows int64) float64 {
	return pagesFor(rows)*m.SeqPage + float64(rows)*m.Row
}

// DefaultCostModel returns the constants every price is made of; CPU
// terms are small but non-zero so degenerate plans (classifying thousands
// of nodes to read ten rows) still pay.
func DefaultCostModel() CostModel {
	return CostModel{SeqPage: 1, RandPage: 4, Node: 0.02, Row: 0.002, KNNGrowth: 4}
}

// Estimate is a cheap prediction of a query's selectivity.
type Estimate struct {
	// Selectivity is the predicted fraction of catalog rows returned,
	// in [0, 1].
	Selectivity float64
	// Rows is Selectivity scaled to the catalog size.
	Rows float64
	// Method names the estimator that produced the prediction:
	// "grid-sample" (the count over the sample, clamped to the plan's
	// bounds), "zone-bound" (no sample: the rows on the pages the scan
	// fetches, an upper bound) or "empty" (no rows).
	Method string
}

// Choice is the planner's plan for one query: all the clauses of its
// WHERE together.
type Choice struct {
	Est Estimate
	// Cost is the index scan's predicted cost in sequential-page units
	// — the number admission control compares against its degradation
	// threshold before any execution happens.
	Cost float64
	// Reason is a one-line human-readable explanation, surfaced
	// through core.Report.PlanReason.
	Reason string
	// Tree is the kd-tree Ranges were derived from (nil when none was
	// built). Ranges address rows of that tree's clustered table, so a
	// cached Choice may only run against a snapshot holding the same
	// tree.
	Tree *kdtree.Tree
	// Ranges is the index scan, priced and ready to run: ascending,
	// non-overlapping, page-aligned, adjacent ranges of one kind
	// coalesced. Filter ranges none of whose pages can hold a match are
	// already dropped, so an empty slice proves the paged
	// answer empty without a read.
	Ranges []ScanTask
	// NodesVisited and ZonesClassified count the classification work
	// behind Ranges: kd-tree nodes and page zones tested.
	NodesVisited, ZonesClassified int
	// PagesPruned counts the index table's pages no range covers —
	// pages under Outside subtrees or dropped filter ranges. The
	// executor's own PagesSkipped (Outside page zones inside kept
	// filter ranges) adds to it.
	PagesPruned int
}

// Planner prices polyhedron queries against the indexes it is given.
// With a kd-tree, Catalog is the table clustered on its leaves (rows
// past the tree's coverage form the unindexed tail); without one the
// index scan degenerates to one zone-pruned filter range over the
// catalog. Every price is made of DefaultCostModel's constants.
type Planner struct {
	Catalog *table.Table
	Kd      *kdtree.Tree
	// Sample is a uniform random sample of Catalog's rows — the grid's
	// layer 1 — or nil. It describes the rows the grid was built over;
	// rows appended since are scaled in by the catalog's row count.
	Sample *table.Sample
	// MemRows is the number of memtable rows every scan must
	// additionally merge (freshly ingested, not yet compacted into the
	// paged tables): a per-row CPU surcharge that keeps the price
	// honest for admission control under ingest.
	MemRows int64
}

// Plan estimates the selectivity of a WHERE — its DNF clauses; a convex
// query is a set of one — and builds and prices its index scan. Catalog
// must be non-nil. The only error is a plane of the wrong dimension.
func (p *Planner) Plan(clauses []vec.Polyhedron) (Choice, error) {
	pred, err := table.CompilePagePred(clauses)
	if err != nil {
		return Choice{}, err
	}
	m := DefaultCostModel()
	c := Choice{Tree: p.Kd}

	// One walk classifies the tree, then the ranges fold
	// into page-aligned tasks. Rows past the tree's coverage — the
	// tail minor compactions appended, or the whole table when no tree
	// is built — are one more filter range.
	b := scanBuilder{pred: pred, zones: p.Catalog.ZoneMaps(), rows: table.RowID(p.Catalog.NumRows())}
	var kdRanges []kdtree.Range
	var indexed table.RowID
	if p.Kd != nil {
		kdRanges, c.NodesVisited = p.Kd.CollectRanges(clauses)
		indexed = table.RowID(p.Kd.NumRows)
	}
	for _, r := range kdRanges {
		b.add(r.Lo, r.Hi, r.Filter)
	}
	if b.rows > indexed {
		b.add(indexed, b.rows, true)
	}
	b.flushRun()
	b.flushSpan()
	c.Ranges, c.ZonesClassified = b.tasks, b.classified
	c.PagesPruned = p.Catalog.NumPages() - b.spanned
	// The memtable rows are merged too: pure CPU, they are in memory.
	c.Cost = float64(b.fetched)*m.SeqPage + float64(c.NodesVisited+b.classified)*m.Node +
		float64(b.fetchedRows)*m.Row + float64(p.MemRows)*m.Row

	c.Est = p.estimate(pred, b.unfilteredRows, b.fetchedRows, int64(p.Catalog.NumRows()))
	c.Reason = fmt.Sprintf("est sel %.3f (%s); index %.1f", c.Est.Selectivity, c.Est.Method, c.Cost)
	return c, nil
}

// scanBuilder folds the walk's ascending row ranges into the index
// scan's tasks and prices them as it goes. Tasks are page-aligned, so
// every page belongs to at most one of them and is fetched at most
// once: an unfiltered run keeps the pages it covers whole, and its
// ragged first and last pages — shared with rows that may not match —
// join the filter ranges, whose predicate is exact on any row. Filter
// tasks cost only the pages whose zone the predicate cannot rule out,
// and vanish when no page survives.
type scanBuilder struct {
	pred  *table.PagePred
	zones *table.ZoneMaps // nil: no page can be ruled out
	rows  table.RowID     // the table's row bound

	run   ScanTask // rows: the run of one kind being coalesced; empty when none
	span  pageSpan // pages: the span of one kind being coalesced; empty when none
	tasks []ScanTask

	spanned        int   // pages the emitted tasks cover
	fetched        int   // pages of those the scan will fetch
	fetchedRows    int64 // rows on the fetched pages
	unfilteredRows int64 // rows of the unfiltered tasks, every one a match
	classified     int   // page zones tested
}

// pageSpan is pages [first, end) of one kind.
type pageSpan struct {
	first, end int
	filter     bool
}

// add appends rows [lo, hi), extending the current run when it
// continues it with the same kind.
func (b *scanBuilder) add(lo, hi table.RowID, filter bool) {
	if b.run.Filter == filter && b.run.Hi == lo && b.run.Lo < lo {
		b.run.Hi = hi
		return
	}
	b.flushRun()
	b.run = ScanTask{Lo: lo, Hi: hi, Filter: filter}
}

// flushRun turns the current run into page spans.
func (b *scanBuilder) flushRun() {
	r := b.run
	if r.Lo == r.Hi {
		return
	}
	b.run = ScanTask{}
	const rpp = table.RecordsPerPage
	first, end := int(r.Lo/rpp), int((r.Hi-1)/rpp)+1 // pages the run touches
	if !r.Filter {
		whole, wholeEnd := int((r.Lo+rpp-1)/rpp), int(r.Hi/rpp) // pages it covers
		if r.Hi == b.rows {
			wholeEnd = end // the table's last page ends where the run does
		}
		if whole < wholeEnd {
			b.addSpan(first, whole, true)
			b.addSpan(whole, wholeEnd, false)
			b.addSpan(wholeEnd, end, true)
			return
		}
	}
	b.addSpan(first, end, true)
}

// addSpan appends pages [first, end), extending the current span when
// it touches or overlaps it with the same kind. Only filter spans can
// overlap: two runs' ragged edges on one page.
func (b *scanBuilder) addSpan(first, end int, filter bool) {
	if first >= end {
		return
	}
	if b.span.first < b.span.end && b.span.filter == filter && first <= b.span.end {
		b.span.end = max(b.span.end, end)
		return
	}
	b.flushSpan()
	b.span = pageSpan{first, end, filter}
}

// flushSpan prices the current span and emits it as a task unless its
// zones prove it empty.
func (b *scanBuilder) flushSpan() {
	sp := b.span
	if sp.first == sp.end {
		return
	}
	b.span = pageSpan{}
	const rpp = table.RecordsPerPage
	t := ScanTask{Lo: table.RowID(sp.first) * rpp, Hi: min(table.RowID(sp.end)*rpp, b.rows), Filter: sp.filter}
	fetched, rows := sp.end-sp.first, int64(t.Hi-t.Lo)
	if sp.filter && b.zones != nil {
		for pg := sp.first; pg < sp.end; pg++ {
			z, ok := b.zones.Page(pg)
			if !ok {
				continue
			}
			b.classified++
			if b.pred.Classify(&z) == vec.Outside {
				fetched--
				rows -= int64(min(table.RowID(pg+1)*rpp, b.rows) - table.RowID(pg)*rpp)
			}
		}
		if fetched == 0 {
			return
		}
	}
	b.tasks = append(b.tasks, t)
	b.spanned += sp.end - sp.first
	b.fetched += fetched
	b.fetchedRows += rows
	if !sp.filter {
		b.unfilteredRows += rows
	}
}

// estimate predicts how many of the catalog's n rows match pred: n ·
// hits / |S| over the sample, or the rule of three's 3n / |S| when no
// sample row matches, clamped to [lo, hi] — the unfiltered tasks' rows,
// all matches, and the rows on the fetched pages, where every match
// lies. The clamp only moves the count toward the truth. Without a
// sample the estimate is hi.
func (p *Planner) estimate(pred *table.PagePred, lo, hi, n int64) Estimate {
	if n == 0 {
		return Estimate{Method: "empty"}
	}
	rows, method := float64(hi), "zone-bound"
	if p.Sample != nil && p.Sample.Len() > 0 {
		method = "grid-sample"
		if lo < hi { // else the clamp alone decides
			hits := float64(pred.Count(p.Sample))
			if hits == 0 {
				hits = 3 // the rule of three: a 95 % bound on a share never seen
			}
			rows = min(max(float64(n)*hits/float64(p.Sample.Len()), float64(lo)), float64(hi))
		}
	}
	sel := min(rows/float64(n), 1)
	return Estimate{Selectivity: sel, Rows: sel * float64(n), Method: method}
}

// KNNChoice is the planner's price for a k-nearest-neighbour query:
// the ordered LIMIT ORDER BY dist(p) LIMIT k walking the kd-tree best
// node first (Stream).
type KNNChoice struct {
	// CostIndex is the walk's predicted cost in sequential-page units,
	// the pre-admission price of the query.
	CostIndex float64
}

// PlanKNN prices a kNN query with neighbourhood size k on the kd walk
// over p.Kd, which must be non-nil. The model: a query must expand
// enough leaves to hold k points, inflated by the KNNGrowth spill factor
// (the k-th distance reaches across leaf faces); each expanded leaf
// costs its pages at RandPage — the walk visits them by distance, not
// by page number — plus a tree descent (Node per level) plus Row per
// point examined; each page of the unindexed tail costs a zone test
// (Node), and those the k-th distance reaches a read (priced as if the
// tail were one kd-ordered run — a lower bound). The walk never reads a
// page twice, so the price is capped at the whole table's scan price.
func (p *Planner) PlanKNN(k int) KNNChoice {
	m := DefaultCostModel()
	k = max(k, 1)
	var c KNNChoice
	if p.Kd.NumLeaves() > 0 && p.Kd.NumRows > 0 {
		leaves := float64(p.Kd.NumLeaves())
		rowsPerLeaf := float64(p.Kd.NumRows) / leaves
		expLeaves := math.Min(leaves, math.Ceil(m.KNNGrowth*(float64(k)/rowsPerLeaf+1)))
		expRows := expLeaves * rowsPerLeaf
		// Each expanded leaf costs a root-to-leaf descent worth of node
		// keys.
		nodes := expLeaves * float64(p.Kd.Levels+1)
		// The unindexed tail costs one zone test per page, plus a read of
		// the pages whose zone lies within the k-th distance. Compaction
		// writes the tail as kd-ordered runs: a run's pages each hold a
		// few adjacent leaves' worth of rows, and the leaves a probe
		// reaches are rarely adjacent in five dimensions, so a run is read
		// about one page per expected leaf (more once a leaf's share of
		// the run outgrows a page). The planner does not know how many
		// runs the tail is made of and prices it as one: a lower bound —
		// each further run adds up to as many pages again (EXPERIMENTS.md
		// "Ingest read tax" measures ≈ 40 pages read over ≈ 8 runs at 5
		// expected leaves).
		var tailPages, tailHits float64
		if p.Catalog.NumRows() > p.Kd.NumRows {
			tailPages = pagesFor(int64(p.Catalog.NumRows() - p.Kd.NumRows))
			tailHits = math.Min(tailPages, math.Ceil(expLeaves*math.Max(1, tailPages/leaves)))
		}
		c.CostIndex = pagesFor(int64(expRows))*m.RandPage + nodes*m.Node + expRows*m.Row +
			tailPages*m.Node + tailHits*(m.RandPage+table.RecordsPerPage*m.Row)
		c.CostIndex = math.Min(c.CostIndex, m.FullScanCost(int64(p.Catalog.NumRows())))
	}
	c.CostIndex += float64(p.MemRows) * m.Row
	return c
}

// pagesFor converts a row count to page reads, rounding up.
func pagesFor(rows int64) float64 {
	if rows <= 0 {
		return 0
	}
	return math.Ceil(float64(rows) / float64(table.RecordsPerPage))
}
