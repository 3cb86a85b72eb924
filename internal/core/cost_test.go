package core

import (
	"testing"

	"repro/internal/sky"
)

// TestEstimateStatementCost pins the pre-admission pricing contract:
// zero I/O is verifiable only indirectly (the planner is zero-I/O by
// construction), but the ordering the shed policy depends on — wide
// scans price above narrow index probes, LIMIT 0 is free, bigger k
// costs more — must hold on a real catalog.
func TestEstimateStatementCost(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.IngestSynthetic(sky.DefaultParams(5000, 42)); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}

	cost := func(src string) float64 {
		t.Helper()
		return db.EstimateStatementCost(mustStatement(t, src))
	}

	if got := cost("SELECT * LIMIT 0"); got != 0 {
		t.Errorf("LIMIT 0 cost = %v, want 0", got)
	}
	full := cost("SELECT *")
	if full <= 0 {
		t.Fatalf("full scan cost = %v, want > 0", full)
	}
	narrow := cost("u < 14")
	if narrow <= 0 || narrow >= full {
		t.Errorf("narrow predicate cost = %v, want in (0, %v)", narrow, full)
	}
	// A pushed-down LIMIT bounds the scan, so it must price below the
	// unlimited statement.
	limited := cost("SELECT * LIMIT 10")
	if limited <= 0 || limited >= full {
		t.Errorf("LIMIT 10 cost = %v, want in (0, %v)", limited, full)
	}
	// A union is one walk with one price: two heavily overlapping
	// clauses cost what the single clause enclosing both does, not the
	// sum of two scans, and an unordered LIMIT bounds it like any other.
	enclosing := cost("SELECT * WHERE g - r > 0.2 AND r < 18.1")
	union := cost("SELECT * WHERE g - r > 0.2 AND r < 18 OR g - r > 0.25 AND r < 18.1")
	if union <= 0 || union > 1.05*enclosing {
		t.Errorf("overlapping union cost = %v, the enclosing clause %v: the overlap is charged twice", union, enclosing)
	}
	if got := cost("SELECT * WHERE g - r > 0.2 AND r < 18 OR g - r > 0.25 AND r < 18.1 LIMIT 10"); got <= 0 || got >= union {
		t.Errorf("union LIMIT 10 cost = %v, want in (0, %v)", got, union)
	}
	// ORDER BY defeats the limit pushdown: every row must be seen.
	ordered := cost("SELECT * ORDER BY u LIMIT 10")
	if ordered < full {
		t.Errorf("ORDER BY LIMIT cost = %v, want >= full scan %v", ordered, full)
	}
	// kNN-served statement prices through PlanKNN and grows with k.
	k10 := cost("SELECT * ORDER BY dist(18,18,18,18,18) LIMIT 10")
	k1000 := cost("SELECT * ORDER BY dist(18,18,18,18,18) LIMIT 1000")
	if k10 <= 0 || k1000 < k10 {
		t.Errorf("kNN costs k=10: %v, k=1000: %v; want positive and non-decreasing", k10, k1000)
	}
	if got := db.EstimateKNNCost(10, 7); got < 7*db.EstimateKNNCost(10, 1) {
		t.Errorf("batch kNN cost %v should scale with point count", got)
	}
	// Without a photo-z estimator the price is 0 (execution will
	// surface the real error).
	if got := db.EstimatePhotoZCost(5); got != 0 {
		t.Errorf("photo-z cost without estimator = %v, want 0", got)
	}
	if err := db.BuildPhotoZ(8, 1); err != nil {
		t.Fatal(err)
	}
	if got := db.EstimatePhotoZCost(5); got <= 0 {
		t.Errorf("photo-z cost with estimator = %v, want > 0", got)
	}
}

// TestEstimateCostNoCatalog: pricing before ingest returns 0 rather
// than erroring, so admission control never masks the real error.
func TestEstimateCostNoCatalog(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.EstimateStatementCost(mustStatement(t, "SELECT *")); got != 0 {
		t.Errorf("cost without catalog = %v, want 0", got)
	}
	if got := db.EstimateKNNCost(10, 1); got != 0 {
		t.Errorf("kNN cost without catalog = %v, want 0", got)
	}
}
