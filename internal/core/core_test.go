package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

func openDB(t *testing.T, n int) *SpatialDB {
	t.Helper()
	db, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if n > 0 {
		p := sky.DefaultParams(n, 42)
		p.SpectroFrac = 0.15
		if err := db.IngestSynthetic(p); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestOpenIngest(t *testing.T) {
	db := openDB(t, 1000)
	if db.NumRows() != 1000 {
		t.Errorf("NumRows = %d", db.NumRows())
	}
	if _, err := db.Catalog(); err != nil {
		t.Error(err)
	}
	if err := db.IngestSynthetic(sky.DefaultParams(10, 1)); err == nil {
		t.Error("double ingest should fail")
	}
}

func TestEmptyDBErrors(t *testing.T) {
	db := openDB(t, 0)
	if _, err := db.Catalog(); err == nil {
		t.Error("catalog of empty db should fail")
	}
	if err := db.BuildKdIndex(0); err == nil {
		t.Error("index build on empty db should fail")
	}
	if err := db.BuildGridIndex(0, 1); err == nil {
		t.Error("grid build on empty db should fail")
	}
	if err := db.BuildVoronoiIndex(0, 1); err == nil {
		t.Error("voronoi build on empty db should fail")
	}
	if _, _, err := db.QueryWhere("r < 18", PlanAuto); err == nil {
		t.Error("query on empty db should fail")
	}
	if _, _, err := db.NearestNeighbors(vec.Point{1, 2, 3, 4, 5}, 3); err == nil {
		t.Error("kNN without index should fail")
	}
	if _, _, err := db.SampleRegion(vec.UnitBox(3), 5); err == nil {
		t.Error("sample without grid should fail")
	}
	if _, err := db.EstimateRedshift(vec.Point{1, 2, 3, 4, 5}); err == nil {
		t.Error("photo-z without build should fail")
	}
}

func TestIngestRecords(t *testing.T) {
	db := openDB(t, 0)
	recs := []table.Record{{ObjID: 1}, {ObjID: 2}}
	if err := db.IngestRecords(recs); err != nil {
		t.Fatal(err)
	}
	if db.NumRows() != 2 {
		t.Errorf("NumRows = %d", db.NumRows())
	}
}

func TestAutoPlanSelectiveQueryUsesIndex(t *testing.T) {
	db := openDB(t, 4000)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	// The estimate is counted on the grid's layer 1.
	if err := db.BuildGridIndex(0, 1); err != nil {
		t.Fatal(err)
	}
	// A narrow color cut returns a tiny fraction of the catalog; the
	// cost-based planner must route it through the index scan, never
	// the full scan.
	_, rep, err := db.QueryWhere("r < 16", PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan != PlanKdTree {
		t.Errorf("auto plan = %v (reason %q)", rep.Plan, rep.PlanReason)
	}
	if rep.PlanReason == "" {
		t.Error("auto plan should explain itself")
	}
	if rep.EstimatedSelectivity < 0 || rep.EstimatedSelectivity > 0.25 {
		t.Errorf("estimated selectivity %v for a narrow cut", rep.EstimatedSelectivity)
	}
}

// TestAutoPlanWideQueryUsesIndex: nearly the whole catalog matches,
// and auto still runs the index scan — it reads a subset of the full
// scan's pages in the same order, so it returns the forced full scan's
// rows and reads no more pages.
func TestAutoPlanWideQueryUsesIndex(t *testing.T) {
	db := openDB(t, 4000)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	got, rep, err := db.QueryWhere("r < 29", PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan != PlanKdTree {
		t.Errorf("auto plan = %v (reason %q)", rep.Plan, rep.PlanReason)
	}
	if rep.EstimatedSelectivity < 0.5 {
		t.Errorf("estimated selectivity %v for a near-total query", rep.EstimatedSelectivity)
	}
	want, full, err := db.QueryWhere("r < 29", PlanFullScan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("auto returned %d rows, the full scan %d: the rows differ", len(got), len(want))
	}
	if rep.PagesScanned > full.PagesScanned {
		t.Errorf("auto scanned %d pages, the full scan %d", rep.PagesScanned, full.PagesScanned)
	}
}

// TestConcurrentQueries exercises the N-readers contract: one
// SpatialDB serving polyhedron queries, kNN and sampling from many
// goroutines at once. Run with -race.
func TestConcurrentQueries(t *testing.T) {
	db := openDB(t, 4000)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildGridIndex(256, 7); err != nil {
		t.Fatal(err)
	}
	where := "g - r < 1.1 AND g - r > 0.3 AND r < 20"
	wantRecs, _, err := db.QueryWhere(where, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	dom3 := vec.NewBox(db.Domain().Min[:3], db.Domain().Max[:3])
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				recs, _, err := db.QueryWhere(where, PlanAuto)
				if err != nil {
					errs <- err
					return
				}
				if len(recs) != len(wantRecs) {
					errs <- fmt.Errorf("worker %d got %d rows, want %d", worker, len(recs), len(wantRecs))
					return
				}
				if _, _, err := db.NearestNeighbors(recs[i%len(recs)].Point(), 3); err != nil {
					errs <- err
					return
				}
				if _, _, err := db.SampleRegion(dom3, 50); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestAutoPlanFallsBackToScan(t *testing.T) {
	db := openDB(t, 500)
	_, rep, err := db.QueryWhere("r < 19", PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan != PlanPrunedScan {
		t.Errorf("auto plan = %v", rep.Plan)
	}
}

func TestNearestNeighborsThroughFacade(t *testing.T) {
	db := openDB(t, 3000)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	cat, _ := db.Catalog()
	var rec table.Record
	cat.Get(77, &rec)
	nbs, rep, err := db.NearestNeighbors(rec.Point(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 5 {
		t.Fatalf("got %d neighbours", len(nbs))
	}
	if nbs[0].ObjID != rec.ObjID {
		t.Errorf("nearest neighbour of a data point should be itself")
	}
	if rep.Plan != PlanKdTree || rep.LeavesExamined < 1 || rep.RowsExamined < 5 ||
		rep.RowsReturned != 5 || rep.PlanReason == "" {
		t.Errorf("kNN report not populated: %+v", rep)
	}
}

func TestSampleRegionThroughFacade(t *testing.T) {
	db := openDB(t, 5000)
	if err := db.BuildGridIndex(256, 7); err != nil {
		t.Fatal(err)
	}
	dom3 := vec.NewBox(db.Domain().Min[:3], db.Domain().Max[:3])
	recs, rep, err := db.SampleRegion(dom3, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 300 {
		t.Errorf("sampled %d points", len(recs))
	}
	// The sampling path reports its cost like every other query path.
	if rep.Plan != PlanGrid || rep.RowsReturned != int64(len(recs)) ||
		rep.RowsExamined < rep.RowsReturned || rep.PlanReason == "" {
		t.Errorf("sample report not populated: %+v", rep)
	}
	if rep.DiskReads+rep.CacheHits == 0 {
		t.Error("sample report shows zero page accesses")
	}
}

// TestSampleRegionScopedStats pins the accounting fix: a sample's
// reported pages are its own, not a diff of store-global counters
// that concurrent queries also move.
func TestSampleRegionScopedStats(t *testing.T) {
	db := openDB(t, 5000)
	if err := db.BuildGridIndex(256, 7); err != nil {
		t.Fatal(err)
	}
	dom3 := vec.NewBox(db.Domain().Min[:3], db.Domain().Max[:3])
	_, ref, err := db.SampleRegion(dom3, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the store from concurrent samplers; the measured sample's
	// report must not absorb their page traffic.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := db.SampleRegion(dom3, 200); err != nil {
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		_, rep, err := db.SampleRegion(dom3, 200)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.DiskReads+rep.CacheHits, ref.DiskReads+ref.CacheHits; got != want {
			t.Fatalf("concurrent sample reported %d pages, isolated run %d: scope leaked", got, want)
		}
	}
	close(stop)
	wg.Wait()
}

func TestPhotoZThroughFacade(t *testing.T) {
	db := openDB(t, 10000)
	if err := db.BuildPhotoZ(16, 1); err != nil {
		t.Fatal(err)
	}
	z, err := db.EstimateRedshift(sky.GalaxyColors(0.2, 18))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-0.2) > 0.08 {
		t.Errorf("EstimateRedshift = %v, want ~0.2", z)
	}
}

func TestQueryWhereParseError(t *testing.T) {
	db := openDB(t, 100)
	if _, _, err := db.QueryWhere("r <", PlanFullScan); err == nil {
		t.Error("bad query should fail")
	}
}

// TestPlanString pins each plan's number and name. Both travel: the
// number in every shard frame summary, the name in every JSON summary,
// and a coordinator and its shards may run different builds — so a
// retired plan leaves a gap, never a renumbering.
func TestPlanString(t *testing.T) {
	for _, tc := range []struct {
		plan Plan
		num  int
		name string
	}{
		{PlanAuto, 0, "auto"},
		{PlanFullScan, 1, "fullscan"},
		{PlanKdTree, 2, "kdtree"},
		{PlanGrid, 4, "grid"},
		{PlanPrunedScan, 5, "pruned-scan"},
	} {
		if int(tc.plan) != tc.num || tc.plan.String() != tc.name {
			t.Errorf("plan %d %q, want %d %q", int(tc.plan), tc.plan.String(), tc.num, tc.name)
		}
	}
	if got := Plan(3).String(); got != "Plan(3)" {
		t.Errorf("retired plan 3 named %q", got)
	}
}

// TestReportAddSumsEveryCounter: Add is the one fold of an answer's
// parts, so every int64 work counter of Report is in it — RowsReturned
// excepted, which each fold site sets itself. A counter added to Report
// but not to Add fails here.
func TestReportAddSumsEveryCounter(t *testing.T) {
	var part Report
	v := reflect.ValueOf(&part).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() == reflect.Int64 {
			v.Field(i).SetInt(int64(i + 1))
		}
	}
	var sum Report
	sum.Add(part)
	sum.Add(part)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if got.Field(i).Kind() != reflect.Int64 {
			continue
		}
		want := 2 * int64(i+1)
		if name == "RowsReturned" {
			want = 0
		}
		if n := got.Field(i).Int(); n != want {
			t.Errorf("Report.Add folds %s to %d, want %d", name, n, want)
		}
	}
}
