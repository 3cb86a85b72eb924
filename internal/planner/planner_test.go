package planner

import (
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/grid"
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
	grid    *grid.Index // over kdTable
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
	d := sky.Domain()
	w.grid, err = grid.Build(w.kdTable, "mag.grid.tbl", grid.DefaultParams(vec.NewBox(d.Min[:3], d.Max[:3]), 7))
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

// trueSelectivity is the share of tb's rows the WHERE — its clauses —
// matches, by brute force.
func trueSelectivity(t *testing.T, tb *table.Table, clauses ...vec.Polyhedron) float64 {
	t.Helper()
	u, matches := colorsql.Union{Polys: clauses}, 0
	err := tb.Scan(func(_ table.RowID, r *table.Record) bool {
		if u.Contains(r.Point()) {
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

// estimateWheres are colour cuts across the selectivity range, each
// with a bounding box that covers most of the catalog, and one OR.
var estimateWheres = []string{
	"g - r > 0.5 AND g - r < 0.55",
	"g - r > 1.2 AND r - i > 0.6",
	"u - g < 0.6 AND g - r < 0.3",
	"u - g > 2.0 AND g - r < 1.0",
	"g - r > 0.3 AND g - r < 0.9",
	"r < 20",
	"r < 17",
	"r < 16 OR g - r > 1.2",
}

// TestEstimateOnSample checks the estimate over Figure 5's box ladder
// and the colour cuts: it lies inside the bounds the plan proves, and
// within the binomial 3σ of the true share where the sample holds a
// match (under the rule of three's 3/|S| where it holds none). Without
// a sample it is the zone bound, never below the truth. The count
// allocates nothing, and planners sharing one sample concurrently
// agree with the serial estimates (run under -race).
func TestEstimateOnSample(t *testing.T) {
	w := sharedWorld(t)
	sample := w.grid.FirstLayer()
	size, n := float64(sample.Len()), float64(w.kdTable.NumRows())
	type estimateCase struct {
		name    string
		clauses []vec.Polyhedron
	}
	var cases []estimateCase
	for _, half := range []float64{0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8} {
		cases = append(cases, estimateCase{fmt.Sprintf("box %.1f", half), []vec.Polyhedron{centeredBox(w.kdTable, half)}})
	}
	for _, where := range estimateWheres {
		u, err := colorsql.Parse(where, colorsql.DefaultVars(), table.Dim)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, estimateCase{where, u.Polys})
	}
	pl := &Planner{Catalog: w.kdTable, Kd: w.tree, Sample: sample}
	bare := &Planner{Catalog: w.kdTable, Kd: w.tree}
	want := make([]Estimate, len(cases))
	for i, c := range cases {
		pred, err := table.CompilePagePred(c.clauses)
		if err != nil {
			t.Fatal(err)
		}
		truth := trueSelectivity(t, w.kdTable, c.clauses...)
		got := mustPlan(t, pl, c.clauses...)
		est := got.Est
		lo, hi := planBounds(w.kdTable, pred, got.Ranges)
		hits := pred.Count(sample)
		t.Logf("%s: estimated %.4f, true %.4f, %d sample hits", c.name, est.Selectivity, truth, hits)
		switch {
		case est.Method != "grid-sample":
			t.Errorf("%s: method %q", c.name, est.Method)
		case est.Rows < lo || est.Rows > hi:
			t.Errorf("%s: estimated %.1f rows, outside the plan's [%.0f, %.0f]", c.name, est.Rows, lo, hi)
		case hits > 0 && math.Abs(est.Selectivity-truth) > 3*math.Sqrt(truth*(1-truth)/size):
			t.Errorf("%s: estimated %.4f, true %.4f: beyond 3σ of a %v-row sample", c.name, est.Selectivity, truth, size)
		case hits == 0 && est.Selectivity > 3/size:
			t.Errorf("%s: no sample hit, estimated %.4f above the rule of three's %.4f", c.name, est.Selectivity, 3/size)
		}
		if z := mustPlan(t, bare, c.clauses...).Est; z.Method != "zone-bound" || z.Rows < truth*n || math.Abs(z.Rows-hi) > 1e-6 {
			t.Errorf("%s: without a sample %s %.0f rows, want the zone bound %.0f ≥ the true %.0f", c.name, z.Method, z.Rows, hi, truth*n)
		}
		if allocs := testing.AllocsPerRun(10, func() { pred.Count(sample) }); allocs != 0 {
			t.Errorf("%s: the count allocates %v times", c.name, allocs)
		}
		want[i] = est
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl := &Planner{Catalog: w.kdTable, Kd: w.tree, Sample: sample}
			for i, c := range cases {
				if got, err := pl.Plan(c.clauses); err != nil || got.Est != want[i] {
					t.Errorf("%s: concurrent estimate %+v (%v), serial %+v", c.name, got.Est, err, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// planBounds returns what a plan's tasks prove about its matches: the
// rows of the unfiltered tasks all match, and every match lies on a
// page the scan fetches — an unfiltered task's, or a filter task's
// whose zone the predicate does not rule out.
func planBounds(tb *table.Table, pred *table.PagePred, tasks []ScanTask) (lo, hi float64) {
	const rpp = table.RecordsPerPage
	for _, task := range tasks {
		if !task.Filter {
			lo += float64(task.Hi - task.Lo)
			hi += float64(task.Hi - task.Lo)
			continue
		}
		for pg := task.Lo / rpp; pg*rpp < task.Hi; pg++ {
			if z, ok := tb.ZoneMaps().Page(int(pg)); ok && pred.Classify(&z) == vec.Outside {
				continue
			}
			hi += float64(min(task.Hi, (pg+1)*rpp) - max(task.Lo, pg*rpp))
		}
	}
	return lo, hi
}

// TestPlanKNNGrowsWithK: the kNN price grows with k, up to a scan of
// the table at k = N, where the model expects every leaf.
func TestPlanKNNGrowsWithK(t *testing.T) {
	w := sharedWorld(t)
	pl := &Planner{Catalog: w.kdTable, Kd: w.tree}
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
	pl := &Planner{Catalog: catalog, Kd: tree}
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
	pl := &Planner{Catalog: kdTable, Kd: tree}
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
