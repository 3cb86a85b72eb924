package core

import (
	"context"
	"testing"

	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

func TestNearestNeighborsBatchMatchesSerial(t *testing.T) {
	db := openDB(t, 5000)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	cat, _ := db.Catalog()
	var qs []vec.Point
	for i := 0; i < 12; i++ {
		var rec table.Record
		if err := cat.Get(table.RowID(i*311), &rec); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, rec.Point())
	}
	batch, reports, err := db.NearestNeighborsBatch(context.Background(), qs, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(qs) || len(reports) != len(qs) {
		t.Fatalf("batch returned %d results / %d reports for %d queries", len(batch), len(reports), len(qs))
	}
	for i, q := range qs {
		serial, srep, err := db.NearestNeighbors(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(serial) {
			t.Fatalf("query %d: batch %d records, serial %d", i, len(batch[i]), len(serial))
		}
		for j := range serial {
			if batch[i][j].ObjID != serial[j].ObjID {
				t.Fatalf("query %d result %d: batch obj %d, serial obj %d",
					i, j, batch[i][j].ObjID, serial[j].ObjID)
			}
		}
		if reports[i].Plan != PlanKdTree || reports[i].RowsExamined != srep.RowsExamined ||
			reports[i].LeavesExamined != srep.LeavesExamined {
			t.Errorf("query %d report mismatch: batch %+v, serial %+v", i, reports[i], srep)
		}
	}
}

func TestNearestNeighborsPlannerFallsBackToBruteForce(t *testing.T) {
	db := openDB(t, 2000)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	// k = N: the grown region must cover every leaf, so the planner
	// should choose the sequential scan.
	recs, rep, err := db.NearestNeighbors(sky.GalaxyColors(0.2, 18), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2000 {
		t.Fatalf("k=N returned %d records", len(recs))
	}
	if rep.Plan != PlanFullScan {
		t.Errorf("k=N used plan %v (%s), want fullscan", rep.Plan, rep.PlanReason)
	}

	batch, reports, err := db.NearestNeighborsBatch(context.Background(), []vec.Point{sky.GalaxyColors(0.2, 18)}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch[0]) != 2000 || reports[0].Plan != PlanFullScan {
		t.Errorf("batch k=N: %d records, plan %v", len(batch[0]), reports[0].Plan)
	}
}

func TestEstimateRedshiftBatchMatchesSerial(t *testing.T) {
	db := openDB(t, 6000)
	if err := db.BuildPhotoZ(16, 1); err != nil {
		t.Fatal(err)
	}
	var qs []vec.Point
	for _, z := range []float64{0.05, 0.1, 0.2, 0.3, 0.15} {
		qs = append(qs, sky.GalaxyColors(z, 18))
	}
	want := make([]float64, len(qs))
	for i, q := range qs {
		z, err := db.EstimateRedshift(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = z
	}
	got, rep, err := db.EstimateRedshiftBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("query %d: batch z=%v, serial z=%v", i, got[i], want[i])
		}
	}
	if rep.RowsReturned != int64(len(qs)) || rep.RowsExamined == 0 || rep.LeavesExamined == 0 {
		t.Errorf("batch report not populated: %+v", rep)
	}
}

func TestNearestNeighborsWithoutKdIndexFallsBackToBruteForce(t *testing.T) {
	db := openDB(t, 1500)
	// No BuildKdIndex: the planner must route to brute force instead
	// of erroring, serving the query from the catalog.
	cat, _ := db.Catalog()
	var rec table.Record
	if err := cat.Get(42, &rec); err != nil {
		t.Fatal(err)
	}
	nbs, rep, err := db.NearestNeighbors(rec.Point(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 3 || nbs[0].ObjID != rec.ObjID {
		t.Fatalf("brute-force fallback returned %d records, first obj %d", len(nbs), nbs[0].ObjID)
	}
	if rep.Plan != PlanFullScan || rep.RowsExamined != 1500 {
		t.Errorf("fallback report %+v, want fullscan over 1500 rows", rep)
	}
	batch, reports, err := db.NearestNeighborsBatch(context.Background(), []vec.Point{rec.Point(), rec.Point()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || reports[0].Plan != PlanFullScan || len(batch[1]) != 3 {
		t.Errorf("batch fallback: %d results, plan %v", len(batch), reports[0].Plan)
	}
}
