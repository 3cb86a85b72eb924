package planner

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/table"
	"repro/internal/vec"
)

// TestPlanCrossover pins that the index scan has no crossover with the
// full scan: both read one file in ascending order, and the index scan
// reads a subset of its pages. A selective cut prunes most pages and
// prices at a fraction of a whole-table read, a cut over half the
// catalog still prunes some, and a near-total cut prunes none — its
// ranges cover every page, so it reads what the full scan reads.
func TestPlanCrossover(t *testing.T) {
	w := sharedWorld(t)
	pl := &Planner{Catalog: w.kdTable, Kd: w.tree}
	pages := w.kdTable.NumPages()

	narrow := centeredBox(w.kdTable, 0.4)
	if s := trueSelectivity(t, w.catalog, narrow); s > 0.05 {
		t.Fatalf("narrow query selectivity %0.3f, want < 0.05", s)
	}
	c := mustPlan(t, pl, narrow)
	if full := DefaultCostModel().FullScanCost(int64(w.kdTable.NumRows())); c.Cost > full/4 {
		t.Errorf("narrow query: index priced %.1f, not well under a whole-table read's %.1f", c.Cost, full)
	}
	if c.PagesPruned <= pages/2 || c.PagesPruned >= pages {
		t.Errorf("narrow query pruned %d of %d pages", c.PagesPruned, pages)
	}

	half := centeredBox(w.kdTable, 3.2)
	if s := trueSelectivity(t, w.catalog, half); s < 0.3 || s > 0.9 {
		t.Fatalf("mid query selectivity %0.3f, want a cut of roughly half the catalog", s)
	}
	if c := mustPlan(t, pl, half); c.PagesPruned == 0 {
		t.Errorf("mid query pruned no page (%s)", c.Reason)
	}

	wide := centeredBox(w.kdTable, 12.8)
	if s := trueSelectivity(t, w.catalog, wide); s < 0.99 {
		t.Fatalf("wide query selectivity %0.3f, want ~1", s)
	}
	cw := mustPlan(t, pl, wide)
	if cw.PagesPruned != 0 {
		t.Errorf("wide query pruned %d pages; it matches nearly every row", cw.PagesPruned)
	}
	covered := 0
	for _, r := range cw.Ranges {
		covered += int((r.Hi+table.RecordsPerPage-1)/table.RecordsPerPage - r.Lo/table.RecordsPerPage)
	}
	if covered != pages {
		t.Errorf("wide query ranges %v cover %d of %d pages", cw.Ranges, covered, pages)
	}
}

// TestWalkStopsAtRoot: a cut outside the root's tight bounds is proven
// empty by one node test — no page zone is consulted, no range
// emitted, every page pruned.
func TestWalkStopsAtRoot(t *testing.T) {
	w := sharedWorld(t)
	pl := &Planner{Catalog: w.kdTable, Kd: w.tree}
	// Every synthetic magnitude is above 10.
	q := vec.NewPolyhedron(vec.NewHalfspace(vec.Point{0, 0, 1, 0, 0}, 5))
	c := mustPlan(t, pl, q)
	if c.NodesVisited != 1 || c.ZonesClassified != 0 {
		t.Errorf("walk visited %d nodes and %d page zones, want 1 and 0", c.NodesVisited, c.ZonesClassified)
	}
	if len(c.Ranges) != 0 || c.PagesPruned != w.kdTable.NumPages() {
		t.Errorf("%d ranges emitted, %d of %d pages pruned", len(c.Ranges), c.PagesPruned, w.kdTable.NumPages())
	}
}

// TestIndexScanWithoutTree: with no kd-tree the index scan is one
// filter range over the catalog, priced by classifying its page zones
// — and dropped altogether when they rule every page out.
func TestIndexScanWithoutTree(t *testing.T) {
	w := sharedWorld(t)
	// The kd-clustered copy stands in for a catalog whose physical
	// order happens to make zones tight.
	pl := &Planner{Catalog: w.kdTable}
	c := mustPlan(t, pl, centeredBox(w.kdTable, 0.4))
	rows := table.RowID(w.kdTable.NumRows())
	if len(c.Ranges) != 1 || c.Ranges[0] != (ScanTask{Lo: 0, Hi: rows, Filter: true}) {
		t.Fatalf("ranges = %v, want one filter range over the table", c.Ranges)
	}
	if c.Tree != nil || c.NodesVisited != 0 || c.ZonesClassified != w.kdTable.NumPages() {
		t.Errorf("tree %v, %d nodes, %d zones classified of %d pages", c.Tree, c.NodesVisited, c.ZonesClassified, w.kdTable.NumPages())
	}
	empty := mustPlan(t, pl, vec.NewPolyhedron(vec.NewHalfspace(vec.Point{0, 0, 1, 0, 0}, 5)))
	if len(empty.Ranges) != 0 {
		t.Errorf("provably empty cut kept ranges %v", empty.Ranges)
	}
}

// TestPlanRejectsWrongDimension: a plane of the wrong dimension is an
// error, not a silently unpruned plan.
func TestPlanRejectsWrongDimension(t *testing.T) {
	w := sharedWorld(t)
	pl := &Planner{Catalog: w.kdTable, Kd: w.tree}
	if _, err := pl.Plan([]vec.Polyhedron{vec.NewPolyhedron(vec.NewHalfspace(vec.Point{1, 0, 0}, 18))}); err == nil {
		t.Fatal("3-D plane planned against a 5-D catalog")
	}
}

// TestIndexScanReadsSubsetOfBothLevels is the one-path property: for
// random WHEREs of one to three clauses, the pages the index scan
// fetches are a subset of what either level of the zone hierarchy would
// read on its own — the flat per-page classification of the whole file,
// and the kd walk's ranges — and the rows it streams are exactly the
// per-row reference's, each once, in table order.
func TestIndexScanReadsSubsetOfBothLevels(t *testing.T) {
	w := sharedWorld(t)
	pl := &Planner{Catalog: w.kdTable, Kd: w.tree}
	zm := w.kdTable.ZoneMaps()
	rng := rand.New(rand.NewSource(24))
	for iter := 0; iter < 40; iter++ {
		// Each clause: a colour cut and a magnitude cut through the
		// populated region. Clauses overlap freely.
		clauses := make([]vec.Polyhedron, 1+iter%3)
		for i := range clauses {
			a, b := rng.Intn(table.Dim), rng.Intn(table.Dim)
			colour := vec.Halfspace{A: make(vec.Point, table.Dim), B: rng.Float64()*2 - 0.5}
			colour.A[a]++
			colour.A[b]--
			mag := vec.Halfspace{A: make(vec.Point, table.Dim), B: 15 + rng.Float64()*8}
			mag.A[rng.Intn(table.Dim)] = 1
			clauses[i] = vec.NewPolyhedron(colour, mag)
		}
		pred, err := table.CompilePagePred(clauses)
		if err != nil {
			t.Fatal(err)
		}
		c := mustPlan(t, pl, clauses...)

		flat := map[int]bool{}
		for pg := 0; pg < w.kdTable.NumPages(); pg++ {
			if z, ok := zm.Page(pg); !ok || pred.Classify(&z) != vec.Outside {
				flat[pg] = true
			}
		}
		walk := map[int]bool{}
		kdRanges, _ := w.tree.CollectRanges(clauses)
		for _, r := range kdRanges {
			for pg := int(r.Lo / table.RecordsPerPage); pg <= int((r.Hi-1)/table.RecordsPerPage); pg++ {
				walk[pg] = true
			}
		}
		fetched := map[int]bool{}
		var prev table.RowID
		for i, task := range c.Ranges {
			if task.Lo >= task.Hi || (i > 0 && task.Lo < prev) {
				t.Fatalf("iter %d: ranges not ascending and non-empty: %v", iter, c.Ranges)
			}
			if task.Lo%table.RecordsPerPage != 0 || (task.Hi%table.RecordsPerPage != 0 && uint64(task.Hi) != w.kdTable.NumRows()) {
				t.Fatalf("iter %d: range [%d, %d) is not page-aligned", iter, task.Lo, task.Hi)
			}
			if i > 0 && task.Lo == prev && task.Filter == c.Ranges[i-1].Filter {
				t.Fatalf("iter %d: adjacent ranges of one kind not coalesced: %v", iter, c.Ranges)
			}
			prev = task.Hi
			for pg := int(task.Lo / table.RecordsPerPage); pg <= int((task.Hi-1)/table.RecordsPerPage); pg++ {
				if z, ok := zm.Page(pg); task.Filter && ok && pred.Classify(&z) == vec.Outside {
					continue
				}
				fetched[pg] = true
			}
		}
		for pg := range fetched {
			if !flat[pg] || !walk[pg] {
				t.Fatalf("iter %d: index scan fetches page %d (flat %v, kd walk %v)", iter, pg, flat[pg], walk[pg])
			}
		}

		// Execute it cold: ranges are page-aligned, so every fetched
		// page is exactly one disk read and nothing is fetched twice,
		// and the rows are the reference's.
		w.store.DropCache()
		scope := w.store.Scoped()
		s := Stream(w.kdTable.Scoped(scope), c.Ranges, StreamOpts{Ctx: context.Background(), Cols: table.ColObjID, StopAfter: -1, Pred: pred})
		var got []int64
		for s.Next() {
			got = append(got, s.Record().ObjID)
		}
		s.Close()
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		var want []int64
		if err := w.kdTable.Scan(func(_ table.RowID, r *table.Record) bool {
			if (colorsql.Union{Polys: clauses}).Contains(r.Point()) {
				want = append(want, r.ObjID)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d: index scan streamed %d rows, reference %d; or an order differs", iter, len(got), len(want))
		}
		st := scope.Stats()
		_, scanned, _ := s.ZoneStats()
		if st.DiskReads != int64(len(fetched)) || st.Hits != 0 || scanned != st.DiskReads {
			t.Fatalf("iter %d: %d disk reads + %d hits, PagesScanned %d, plan fetches %d distinct pages",
				iter, st.DiskReads, st.Hits, scanned, len(fetched))
		}
	}
	if n := w.store.PinnedPages(); n != 0 {
		t.Errorf("%d pages left pinned", n)
	}
}
