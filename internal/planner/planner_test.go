package planner

import (
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/kdtree"
	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// world is the shared test fixture: a synthetic catalog with every
// index built over it.
type world struct {
	store   *pagestore.Store
	catalog *table.Table
	tree    *kdtree.Tree
	kdTable *table.Table
}

var (
	worldOnce sync.Once
	theWorld  *world
	worldErr  error
)

const worldRows = 20_000

func sharedWorld(t *testing.T) *world {
	t.Helper()
	worldOnce.Do(func() {
		dir, err := make20kDir()
		if err != nil {
			worldErr = err
			return
		}
		theWorld = dir
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return theWorld
}

func make20kDir() (*world, error) {
	dir, err := os.MkdirTemp("", "planner-test-*")
	if err != nil {
		return nil, err
	}
	s, err := pagestore.Open(dir, 16384)
	if err != nil {
		return nil, err
	}
	w := &world{store: s}
	w.catalog, err = table.Create(s, "mag.tbl")
	if err != nil {
		return nil, err
	}
	if err := sky.GenerateTable(w.catalog, sky.DefaultParams(worldRows, 42)); err != nil {
		return nil, err
	}
	w.tree, w.kdTable, err = kdtree.Build(w.catalog, "mag.kd.tbl", kdtree.BuildParams{Domain: sky.Domain()})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// centeredBox returns a box query of the given half-width around a
// mid-catalog point, the Figure 5 query shape.
func centeredBox(tb *table.Table, half float64) vec.Polyhedron {
	var rec table.Record
	tb.Get(table.RowID(tb.NumRows()/2), &rec)
	c := rec.Point()
	lo, hi := make(vec.Point, table.Dim), make(vec.Point, table.Dim)
	for d := range lo {
		lo[d], hi[d] = c[d]-half, c[d]+half
	}
	return vec.BoxPolyhedron(vec.NewBox(lo, hi))
}

// trueSelectivity counts the exact answer by brute force.
func trueSelectivity(t *testing.T, tb *table.Table, q vec.Polyhedron) float64 {
	t.Helper()
	matches := 0
	err := tb.Scan(func(_ table.RowID, r *table.Record) bool {
		if q.Contains(r.Point()) {
			matches++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(matches) / float64(tb.NumRows())
}

func mustPlan(t *testing.T, pl *Planner, clauses ...vec.Polyhedron) Choice {
	t.Helper()
	c, err := pl.Plan(clauses)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestKdEstimateErrorBound checks the kd-walk estimator across the
// Figure 5 selectivity sweep: box queries from ~0 to ~1 selectivity
// must be predicted within an absolute error of 0.2 (the partial-leaf
// apportionment assumes uniform density inside a leaf's tight bounds,
// so mid-selectivity queries carry the largest error; the extremes —
// where the plan choice is clear-cut — are much tighter).
func TestKdEstimateErrorBound(t *testing.T) {
	w := sharedWorld(t)
	pl := &Planner{Catalog: w.kdTable, Kd: w.tree, Domain: sky.Domain()}
	for _, half := range []float64{0.2, 0.8, 1.6, 3.2, 6.4, 12.8} {
		q := centeredBox(w.kdTable, half)
		actual := trueSelectivity(t, w.catalog, q)
		choice := mustPlan(t, pl, q)
		got := choice.Est.Selectivity
		if choice.Est.Method != "kdtree-walk" {
			t.Fatalf("half=%v: method %q", half, choice.Est.Method)
		}
		bound := 0.2
		if actual < 0.05 {
			// Low-selectivity queries — the regime where picking the
			// index matters most — must be predicted tightly.
			bound = 0.05
		}
		if err := math.Abs(got - actual); err > bound {
			t.Errorf("half=%v: estimated %0.4f, actual %0.4f (err %0.4f > %0.2f)", half, got, actual, err, bound)
		}
	}
}

// TestVolumeEstimator: with no kd-tree the estimate is the query
// box's share of the domain.
func TestVolumeEstimator(t *testing.T) {
	w := sharedWorld(t)
	q := centeredBox(w.kdTable, 3.2)
	bare := &Planner{Catalog: w.catalog, Domain: sky.Domain()}
	c := mustPlan(t, bare, q)
	if c.Est.Method != "bbox-volume" {
		t.Fatalf("method %q", c.Est.Method)
	}
	if c.Est.Selectivity <= 0 || c.Est.Selectivity > 1 {
		t.Errorf("volume estimate %v, want in (0, 1]", c.Est.Selectivity)
	}
}

// TestPlanKNNGrowsWithK: the kNN price grows with k, up to a scan of
// the table at k = N, where the model expects every leaf.
func TestPlanKNNGrowsWithK(t *testing.T) {
	w := sharedWorld(t)
	pl := &Planner{Catalog: w.kdTable, Kd: w.tree, Domain: sky.Domain()}
	prev := pl.PlanKNN(1)
	for _, k := range []int{10, 100, 1000, worldRows} {
		c := pl.PlanKNN(k)
		if c.CostIndex < prev.CostIndex {
			t.Errorf("k=%d: cost %.1f, below the smaller k's %.1f", k, c.CostIndex, prev.CostIndex)
		}
		prev = c
	}
	if got, scan := prev.CostIndex, DefaultCostModel().FullScanCost(worldRows); got != scan {
		t.Errorf("k=N priced %.1f, want a scan of the table, %.1f", got, scan)
	}
}

// TestPlanKNNCappedAtFullScan: the kd walk never reads a page twice,
// so at 200 000 rows a kNN with k ≥ 20 000 — whose leaf model alone
// prices more than the table — costs no more than a scan of it.
func TestPlanKNNCappedAtFullScan(t *testing.T) {
	s, err := pagestore.Open(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	catalog, err := table.Create(s, "mag.tbl")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 200_000
	if err := catalog.AppendAll(make([]table.Record, rows)); err != nil {
		t.Fatal(err)
	}
	// PlanKNN reads the tree's shape only: the paper's √N leaves.
	levels := kdtree.ChooseLevels(rows)
	tree := &kdtree.Tree{Levels: levels, LeafNodes: make([]int32, 1<<levels), NumRows: rows}
	pl := &Planner{Catalog: catalog, Kd: tree, Domain: sky.Domain()}
	scan := DefaultCostModel().FullScanCost(rows)
	for _, k := range []int{20_000, 50_000, rows} {
		if c := pl.PlanKNN(k); c.CostIndex > scan || c.CostIndex <= 0 {
			t.Errorf("k=%d priced %.1f, a scan of the table %.1f", k, c.CostIndex, scan)
		}
	}
	if c := pl.PlanKNN(10); c.CostIndex >= scan/10 {
		t.Errorf("k=10 priced %.1f, not far under the scan's %.1f", c.CostIndex, scan)
	}
}

// TestPlanKNNPricesTailByZones: the unindexed tail is priced as what
// the search does with it — a zone test per page and a read of the few
// pages in reach — so the admission price grows with the tail but stays
// far under a scan of it, with a tail as large as the indexed prefix
// too.
func TestPlanKNNPricesTailByZones(t *testing.T) {
	s, err := pagestore.Open(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	catalog, err := table.Create(s, "mag.tbl")
	if err != nil {
		t.Fatal(err)
	}
	const indexed = 8000
	if err := sky.GenerateTable(catalog, sky.DefaultParams(indexed, 42)); err != nil {
		t.Fatal(err)
	}
	tree, kdTable, err := kdtree.Build(catalog, "mag.kd.tbl", kdtree.BuildParams{Domain: sky.Domain()})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sky.Generate(sky.DefaultParams(indexed, 43))
	if err != nil {
		t.Fatal(err)
	}
	pl := &Planner{Catalog: kdTable, Kd: tree, Domain: sky.Domain()}
	m := DefaultCostModel()
	base := pl.PlanKNN(10)
	prev := base
	for off := 0; off < len(fresh); off += 2000 {
		batch := fresh[off : off+2000]
		if err := kdTable.AppendAll(batch); err != nil {
			t.Fatal(err)
		}
		c := pl.PlanKNN(10)
		tail := float64(off + 2000)
		if c.CostIndex <= prev.CostIndex {
			t.Errorf("tail %v: price %.2f did not grow from %.2f", tail, c.CostIndex, prev.CostIndex)
		}
		if scan := pagesFor(int64(tail))*m.SeqPage + tail*m.Row; c.CostIndex-base.CostIndex >= scan {
			t.Errorf("tail %v: priced %.2f over the tail-less %.2f — a scan of the tail is %.2f", tail, c.CostIndex, base.CostIndex, scan)
		}
		// The price itself: a zone test per tail page, and the tail read
		// as one kd-ordered run — a page per expected leaf until a leaf's
		// share of the run outgrows a page.
		pages, leaves := pagesFor(int64(tail)), float64(tree.NumLeaves())
		expLeaves := math.Min(leaves, math.Ceil(m.KNNGrowth*(10/(indexed/leaves)+1)))
		hits := math.Min(pages, math.Ceil(expLeaves*math.Max(1, pages/leaves)))
		if want := pages*m.Node + hits*(m.RandPage+table.RecordsPerPage*m.Row); math.Abs(c.CostIndex-base.CostIndex-want) > 1e-9 {
			t.Errorf("tail %v: priced %.4f over the tail-less price, want %.4f (%v zone tests, %v pages read)", tail, c.CostIndex-base.CostIndex, want, pages, hits)
		}
		prev = c
	}
}
