package outlier

import (
	"testing"

	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/voronoi"
)

func buildIndex(t *testing.T, n, seeds int) *voronoi.Index {
	t.Helper()
	s, err := pagestore.Open(t.TempDir(), 8192)
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
	p := voronoi.DefaultParams(tb.NumRows(), 7)
	if seeds > 0 {
		p.NumSeeds = seeds
	}
	ix, err := voronoi.Build(tb, "mag.vor", sky.Domain(), p)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestDetectValidation(t *testing.T) {
	ix := buildIndex(t, 1000, 30)
	vols := ix.MonteCarloVolumes(5000, 1)
	if _, err := Detect(ix, vols, 0); err == nil {
		t.Error("fraction 0 should fail")
	}
	if _, err := Detect(ix, vols, 1); err == nil {
		t.Error("fraction 1 should fail")
	}
	if _, err := Detect(ix, vols[:3], 0.1); err == nil {
		t.Error("wrong volume count should fail")
	}
}

func TestDetectFlagsSparseCells(t *testing.T) {
	ix := buildIndex(t, 10000, 500)
	vols := ix.MonteCarloVolumes(100_000, 1)
	res, err := Detect(ix, vols, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 || len(res.Rows) == 0 {
		t.Fatal("nothing flagged")
	}
	// Every flagged cell must be populated and have density <= threshold.
	dens := ix.Densities(vols)
	for _, c := range res.Cells {
		if ix.Members[c] == 0 {
			t.Fatalf("empty cell %d flagged", c)
		}
		if dens[c] > res.Threshold {
			t.Fatalf("cell %d density %g above threshold %g", c, dens[c], res.Threshold)
		}
	}
	// Flagged rows belong to flagged cells.
	cellSet := map[int]bool{}
	for _, c := range res.Cells {
		cellSet[c] = true
	}
	var rec table.Record
	for _, r := range res.Rows[:min(len(res.Rows), 50)] {
		ix.Table().Get(r, &rec)
		if !cellSet[int(rec.CellID)] {
			t.Fatalf("row %d in unflagged cell %d", r, rec.CellID)
		}
	}
}

// TestOutlierEnrichment is the §4 claim: low-density cells are where
// the outliers live. Flagging the sparsest 10% of cells must be far
// more likely to catch a true outlier than random selection.
func TestOutlierEnrichment(t *testing.T) {
	ix := buildIndex(t, 20000, 1400)
	vols := ix.MonteCarloVolumes(200_000, 1)
	res, err := Detect(ix, vols, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(ix, res)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flagged=%d trueOutliers=%d hit=%d precision=%.3f recall=%.3f enrichment=%.1fx",
		ev.Flagged, ev.TrueOutliers, ev.Hit, ev.Precision, ev.Recall, ev.Enrichment)
	if ev.TrueOutliers == 0 {
		t.Fatal("catalog has no outliers")
	}
	if ev.Flagged != len(res.Rows) {
		t.Errorf("evaluation counts %d flagged, detection flagged %d rows", ev.Flagged, len(res.Rows))
	}
	if ev.Enrichment < 5 {
		t.Errorf("enrichment %.1fx < 5x — density cut is not separating outliers", ev.Enrichment)
	}
	if ev.Recall < 0.5 {
		t.Errorf("recall %.2f < 0.5 — sparsest cells should hold most outliers", ev.Recall)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
