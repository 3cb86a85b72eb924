package photoz

import (
	"context"
	"math"
	"testing"

	"repro/internal/knn"
	"repro/internal/table"
	"repro/internal/vec"
)

func TestEstimateBatchMatchesSerial(t *testing.T) {
	tb, refs := fixture(t, 8000)
	est, err := NewEstimator(tb.Store(), refs, "ref.kd", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mags []vec.Point
	tb.Scan(func(id table.RowID, r *table.Record) bool {
		if r.Class == table.Galaxy && !r.HasZ {
			mags = append(mags, r.Point())
		}
		return len(mags) < 50
	})
	want := make([]float64, len(mags))
	for i, m := range mags {
		z, err := est.Estimate(m)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = z
	}
	got, stats, err := est.EstimateBatch(context.Background(), mags)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("query %d: batch z=%v, serial z=%v", i, got[i], want[i])
		}
	}
	if stats.Queries != len(mags) || stats.RowsExamined == 0 ||
		stats.Pages.Hits+stats.Pages.Misses == 0 {
		t.Errorf("implausible batch stats %+v", stats)
	}
}

func TestEvaluateGalaxiesBatchMatchesSerial(t *testing.T) {
	tb, refs := fixture(t, 8000)
	est, err := NewEstimator(tb.Store(), refs, "ref.kd", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := EvaluateGalaxies(tb, est.Estimate, 120)
	if err != nil {
		t.Fatal(err)
	}
	batch, stats, err := EvaluateGalaxiesBatch(tb, est, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(serial) {
		t.Fatalf("batch produced %d pairs, serial %d", len(batch), len(serial))
	}
	for i := range batch {
		if batch[i] != serial[i] {
			t.Fatalf("pair %d: batch %+v, serial %+v", i, batch[i], serial[i])
		}
	}
	if stats.Queries != len(batch) {
		t.Errorf("stats counted %d queries for %d pairs", stats.Queries, len(batch))
	}
}

// TestFitFallbackCounted drives Fit directly with a neighbourhood
// whose features are non-finite: the local polynomial cannot produce a
// usable prediction, so the fit must fall back to the neighbour mean
// and report it, and a healthy batch counts no fallback.
func TestFitFallbackCounted(t *testing.T) {
	tb, refs := fixture(t, 3000)
	est, err := NewEstimator(tb.Store(), refs, "ref.kd", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	nan := float32(math.NaN())
	nbs := make([]knn.Neighbor, 8)
	for i := range nbs {
		nbs[i].Rec.Mags = [5]float32{nan, 17, 17, 17, 17}
		nbs[i].Rec.Redshift = 0.3
	}
	z, fellBack := Fit(vec.Point{17, 17, 17, 17, 17}, nbs, est.Degree)
	if !fellBack {
		t.Error("non-finite neighbourhood did not trigger the mean fallback")
	}
	if math.Abs(z-0.3) > 1e-6 {
		t.Errorf("fallback mean = %v, want 0.3", z)
	}

	// A healthy batch must count zero fallbacks.
	var qs []vec.Point
	for i := 0; i < 5; i++ {
		qs = append(qs, refs[i*7].Point())
	}
	_, bs, err := est.EstimateBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if bs.FitFallbacks != 0 {
		t.Errorf("healthy batch reported %d fallbacks", bs.FitFallbacks)
	}
}

// TestFitOverSearchIsEstimate: an estimate is its neighbour search
// followed by Fit, so Fit over the searcher's neighbours, in the order
// it returns them, gives the estimator's float64.
func TestFitOverSearchIsEstimate(t *testing.T) {
	tb, refs := fixture(t, 3000)
	est, err := NewEstimator(tb.Store(), refs, "ref.kd", 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		q := refs[i*11].Point()
		q[0] += 0.05
		want, err := est.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		nbs, _, err := est.Searcher().Search(q, est.K)
		if err != nil {
			t.Fatal(err)
		}
		if got, fellBack := Fit(q, nbs, est.Degree); got != want || fellBack {
			t.Fatalf("probe %d: Fit over the search's neighbours = %v (fell back %v), Estimate %v", i, got, fellBack, want)
		}
	}
}
