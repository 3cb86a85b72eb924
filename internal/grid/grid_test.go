package grid

import (
	"math"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// buildIndex generates a catalog of n rows and builds a grid index
// over the first 3 magnitude axes.
func buildIndex(t *testing.T, n int, base int) (*Index, *table.Table) {
	t.Helper()
	s, err := pagestore.Open(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	tb, err := table.Create(s, "mag.tbl")
	if err != nil {
		t.Fatal(err)
	}
	if err := sky.GenerateTable(tb, sky.DefaultParams(n, 42)); err != nil {
		t.Fatal(err)
	}
	dom3 := vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3])
	p := DefaultParams(dom3, 7)
	p.Base = base
	ix, err := Build(tb, "mag.grid", p)
	if err != nil {
		t.Fatal(err)
	}
	return ix, tb
}

func TestLayerPlan(t *testing.T) {
	// base 8, growth 8 (3-D): layers of 8, 64, 512, remainder.
	layers := planLayers(1000, 8, 8, 0)
	wantPts := []int{8, 64, 512, 416}
	if len(layers) != len(wantPts) {
		t.Fatalf("planned %d layers, want %d", len(layers), len(wantPts))
	}
	for i, l := range layers {
		if l.points != wantPts[i] {
			t.Errorf("layer %d points = %d, want %d", i+1, l.points, wantPts[i])
		}
		if l.res != 1<<(i+1) {
			t.Errorf("layer %d res = %d, want %d", i+1, l.res, 1<<(i+1))
		}
	}
	// Max layer cap absorbs the tail.
	capped := planLayers(1000, 8, 8, 2)
	if len(capped) != 2 || capped[1].points != 992 {
		t.Errorf("capped plan = %+v", capped)
	}
	// Tiny table: single partial layer.
	tiny := planLayers(5, 8, 8, 0)
	if len(tiny) != 1 || tiny[0].points != 5 {
		t.Errorf("tiny plan = %+v", tiny)
	}
}

func TestLayerOfRank(t *testing.T) {
	// base 8, growth 8: layer 1 = [0,8), layer 2 = [8,72), layer 3 = [72,584).
	cases := []struct{ rank, want int }{
		{0, 1}, {7, 1}, {8, 2}, {71, 2}, {72, 3}, {583, 3}, {584, 4},
	}
	for _, c := range cases {
		if got := layerOfRank(c.rank, 8, 8, 10); got != c.want {
			t.Errorf("layerOfRank(%d) = %d, want %d", c.rank, got, c.want)
		}
	}
	// Clamped to deepest layer.
	if got := layerOfRank(10000, 8, 8, 2); got != 2 {
		t.Errorf("clamped layer = %d", got)
	}
}

func TestCellCodeRoundTrip(t *testing.T) {
	dom := vec.NewBox(vec.Point{0, 0, 0}, vec.Point{1, 1, 1})
	res := 4
	for c0 := 0; c0 < res; c0++ {
		for c1 := 0; c1 < res; c1++ {
			for c2 := 0; c2 < res; c2++ {
				want := uint64(c0*res*res + c1*res + c2)
				b := cellBox(want, dom, res, 3)
				code, err := cellCode(b.Center(), dom, res)
				if err != nil {
					t.Fatal(err)
				}
				if code != want {
					t.Fatalf("cell (%d,%d,%d): code %d, want %d", c0, c1, c2, code, want)
				}
			}
		}
	}
	// Upper domain boundary folds into last cell.
	code, err := cellCode(vec.Point{1, 1, 1}, dom, res)
	if err != nil {
		t.Fatal(err)
	}
	if code != uint64(res*res*res-1) {
		t.Errorf("boundary code = %d", code)
	}
	// Point outside the domain errors.
	if _, err := cellCode(vec.Point{2, 0, 0}, dom, res); err == nil {
		t.Error("outside point should fail")
	}
}

func TestIntersectingCells(t *testing.T) {
	dom := vec.NewBox(vec.Point{0, 0, 0}, vec.Point{1, 1, 1})
	// Whole domain: all cells.
	all := intersectingCells(dom, dom, 2, 3)
	if len(all) != 8 {
		t.Errorf("whole domain intersects %d cells, want 8", len(all))
	}
	// A box inside one octant.
	one := intersectingCells(vec.NewBox(vec.Point{0.1, 0.1, 0.1}, vec.Point{0.2, 0.2, 0.2}), dom, 2, 3)
	if len(one) != 1 || one[0] != 0 {
		t.Errorf("octant query = %v", one)
	}
	// Box outside the domain: nothing.
	none := intersectingCells(vec.NewBox(vec.Point{2, 2, 2}, vec.Point{3, 3, 3}), dom, 2, 3)
	if len(none) != 0 {
		t.Errorf("outside box intersects %v", none)
	}
	// Every returned cell must actually intersect the box.
	q := vec.NewBox(vec.Point{0.3, 0.4, 0.1}, vec.Point{0.9, 0.6, 0.35})
	for _, code := range intersectingCells(q, dom, 8, 3) {
		if !cellBox(code, dom, 8, 3).Intersects(q) {
			t.Errorf("cell %d does not intersect query", code)
		}
	}
}

func TestBuildValidates(t *testing.T) {
	ix, tb := buildIndex(t, 3000, 64)
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if ix.Table().NumRows() != tb.NumRows() {
		t.Errorf("clustered table has %d rows, want %d", ix.Table().NumRows(), tb.NumRows())
	}
	if ix.NumLayers() < 2 {
		t.Errorf("3000 rows with base 64 should span >= 2 layers, got %d", ix.NumLayers())
	}
	if ix.LayerPoints(1) != 64 {
		t.Errorf("layer 1 holds %d points, want 64", ix.LayerPoints(1))
	}
}

func TestSampleReturnsRequestedCount(t *testing.T) {
	ix, _ := buildIndex(t, 5000, 64)
	dom3 := vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3])
	recs, stats, err := ix.Sample(dom3, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 500 {
		t.Errorf("sample returned %d < 500 points", len(recs))
	}
	if stats.Returned != len(recs) {
		t.Errorf("stats.Returned = %d", stats.Returned)
	}
	if stats.LayersUsed < 1 {
		t.Error("no layers used")
	}
}

func TestSamplePointsAreInsideBox(t *testing.T) {
	ix, _ := buildIndex(t, 5000, 64)
	q := vec.NewBox(vec.Point{16, 16, 15}, vec.Point{22, 21, 20})
	recs, _, err := ix.Sample(q, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		m := mags(&recs[i])
		if !q.Contains(m[:3]) {
			t.Fatalf("record %d projects outside the query box", i)
		}
	}
}

func TestSampleExhaustsSmallBoxes(t *testing.T) {
	// A box holding fewer points than requested must return exactly
	// the box population (every layer consulted).
	ix, tb := buildIndex(t, 3000, 64)
	q := vec.NewBox(vec.Point{14.0, 14.0, 14.0}, vec.Point{15.0, 15.0, 15.0})
	recs, _, err := ix.Sample(q, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Count the true population by full scan.
	truth := 0
	tb.ScanMags(func(id table.RowID, m *[table.Dim]float64) bool {
		if q.Contains(m[:3]) {
			truth++
		}
		return true
	})
	if len(recs) != truth {
		t.Errorf("exhaustive sample = %d, true population = %d", len(recs), truth)
	}
}

func TestSampleFollowsDistribution(t *testing.T) {
	// The core §3.1 claim: the returned n points follow the underlying
	// density. Compare the class mixture of the sample with the
	// catalog mixture — a layered sample is class-unbiased because
	// layer assignment is independent of position.
	ix, tb := buildIndex(t, 20000, 256)
	dom3 := vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3])
	recs, _, err := ix.Sample(dom3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	sampleFrac := map[table.Class]float64{}
	for i := range recs {
		sampleFrac[recs[i].Class]++
	}
	for k := range sampleFrac {
		sampleFrac[k] /= float64(len(recs))
	}
	catalogFrac := map[table.Class]float64{}
	tb.Scan(func(id table.RowID, r *table.Record) bool {
		catalogFrac[r.Class]++
		return true
	})
	for k := range catalogFrac {
		catalogFrac[k] /= float64(tb.NumRows())
	}
	for _, c := range []table.Class{table.Star, table.Galaxy, table.Quasar} {
		if math.Abs(sampleFrac[c]-catalogFrac[c]) > 0.05 {
			t.Errorf("class %v: sample %.3f vs catalog %.3f", c, sampleFrac[c], catalogFrac[c])
		}
	}
}

func TestSampleIOProportionalToResult(t *testing.T) {
	// §3.1: "practically only points which are actually returned are
	// read from disk". Cold-cache sample of n points must read pages
	// on the order of n/RecordsPerPage, not the whole table.
	ix, _ := buildIndex(t, 50000, 1024)
	ix.Table().Store().DropCache()
	dom3 := vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3])
	n := 1000
	recs, stats, err := ix.Sample(dom3, n)
	if err != nil {
		t.Fatal(err)
	}
	tablePages := int64(ix.Table().NumPages())
	resultPages := int64(len(recs)/table.RecordsPerPage + 1)
	if stats.Pages.DiskReads > 6*resultPages {
		t.Errorf("read %d pages for %d points (%d result pages); table has %d pages",
			stats.Pages.DiskReads, len(recs), resultPages, tablePages)
	}
	if stats.Pages.DiskReads >= tablePages/2 {
		t.Errorf("sample read %d of %d table pages — not index-like", stats.Pages.DiskReads, tablePages)
	}
}

func TestSampleZoomsAreConsistent(t *testing.T) {
	// Zooming in (smaller box) must still deliver n points when the
	// box population allows, by descending to deeper layers.
	ix, _ := buildIndex(t, 20000, 64)
	q := vec.NewBox(vec.Point{15, 15, 14}, vec.Point{23, 22, 21})
	recs, stats, err := ix.Sample(q, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 300 {
		t.Skipf("box population too small for this seed: %d", len(recs))
	}
	if stats.LayersUsed < 2 {
		t.Logf("note: satisfied from %d layer(s)", stats.LayersUsed)
	}
}

func TestSampleDimMismatch(t *testing.T) {
	ix, _ := buildIndex(t, 1000, 64)
	if _, _, err := ix.Sample(vec.UnitBox(2), 10); err == nil {
		t.Error("expected dim mismatch error")
	}
}

func TestBuildParamValidation(t *testing.T) {
	s, err := pagestore.Open(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, _ := table.Create(s, "t")
	sky.GenerateTable(tb, sky.DefaultParams(10, 1))
	dom3 := vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3])

	bad := DefaultParams(dom3, 1)
	bad.Base = 0
	if _, err := Build(tb, "g1", bad); err == nil {
		t.Error("Base 0 should fail")
	}
	bad2 := DefaultParams(dom3, 1)
	bad2.ProjDim = 9
	if _, err := Build(tb, "g2", bad2); err == nil {
		t.Error("ProjDim 9 should fail")
	}
	bad3 := DefaultParams(vec.UnitBox(2), 1)
	if _, err := Build(tb, "g3", bad3); err == nil {
		t.Error("domain dim mismatch should fail")
	}
	empty, _ := table.Create(s, "empty")
	if _, err := Build(empty, "g4", DefaultParams(dom3, 1)); err == nil {
		t.Error("empty table should fail")
	}
}

func TestTableSampleUnderAndOverSampling(t *testing.T) {
	// Reproduce the §3.1 TABLESAMPLE failure modes.
	s, err := pagestore.Open(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, _ := table.Create(s, "mag.tbl")
	if err := sky.GenerateTable(tb, sky.DefaultParams(20000, 42)); err != nil {
		t.Fatal(err)
	}
	dom3 := vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3])

	// Under-sampling: 1% of pages cannot yield 5000 points from 20000 rows.
	recs, _, err := TableSample(tb, dom3, 5000, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 5000 {
		t.Errorf("1%% sample returned %d points; expected under-sampling", len(recs))
	}

	// Over-sampling: 100% returns n but reads pages in physical order —
	// TOP(n) bias: returned rows come from a prefix of the table.
	tb.Store().DropCache()
	recs2, stats2, err := TableSample(tb, dom3, 1000, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 1000 {
		t.Fatalf("100%% sample returned %d", len(recs2))
	}
	maxID := int64(0)
	for i := range recs2 {
		if recs2[i].ObjID > maxID {
			maxID = recs2[i].ObjID
		}
	}
	if maxID > int64(tb.NumRows())/2 {
		t.Errorf("TOP(n) bias missing: max ObjID %d of %d", maxID, tb.NumRows())
	}
	_ = stats2
}

func TestPageHashDeterministic(t *testing.T) {
	if pageHash(5, 1) != pageHash(5, 1) {
		t.Error("pageHash not deterministic")
	}
	if pageHash(5, 1) == pageHash(6, 1) && pageHash(5, 1) == pageHash(7, 1) {
		t.Error("pageHash suspiciously constant")
	}
	// Roughly uniform: about half of hashes below midpoint.
	below := 0
	n := 10000
	for i := 0; i < n; i++ {
		if pageHash(uint64(i), 9)>>31 == 0 {
			below++
		}
	}
	if below < n/3 || below > 2*n/3 {
		t.Errorf("pageHash bias: %d/%d below midpoint", below, n)
	}
}
