package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

func mustStatement(t *testing.T, src string) colorsql.Statement {
	t.Helper()
	stmt, err := colorsql.ParseStatement(src, colorsql.DefaultVars(), table.Dim)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func collectStatement(t *testing.T, db *SpatialDB, src string, plan Plan) ([]table.Record, Report) {
	t.Helper()
	cur, err := db.ExecStatement(context.Background(), mustStatement(t, src), plan)
	if err != nil {
		t.Fatal(err)
	}
	recs, rep, err := Collect(cur)
	if err != nil {
		t.Fatal(err)
	}
	return recs, rep
}

// TestLimitPushdownBoundsPages is the acceptance criterion: a LIMIT
// k query over a selection matching M >> k rows must read strictly
// fewer pages than the unlimited query, proven with the cursor's
// exact per-cursor stats — at a RAM-sized pool and at a starved one.
func TestLimitPushdownBoundsPages(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDB(t, dir, 8000)
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	var totalPages int64
	for _, pages := range db.Engine().Store().ManifestFiles() {
		totalPages += int64(pages)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A broad cut: most of the catalog matches.
	const where = "r < 24"
	pools := []struct {
		name  string
		pages int
	}{
		{"ram", 0}, // default: whole database resident
		{"10pct", int(totalPages / 10)},
	}
	for _, pool := range pools {
		t.Run(pool.name, func(t *testing.T) {
			db, err := OpenExisting(Config{Dir: dir, PoolPages: pool.pages})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			unlimited, unRep := collectStatement(t, db, "SELECT * WHERE "+where, PlanAuto)
			limited, liRep := collectStatement(t, db, "SELECT * WHERE "+where+" LIMIT 5", PlanAuto)
			if len(limited) != 5 || len(unlimited) < 100 {
				t.Fatalf("limited %d rows, unlimited %d: the selection does not dominate the limit",
					len(limited), len(unlimited))
			}
			if !reflect.DeepEqual(limited, unlimited[:5]) {
				t.Error("limited rows are not the prefix of the unlimited result")
			}
			unPages := unRep.DiskReads + unRep.CacheHits
			liPages := liRep.DiskReads + liRep.CacheHits
			if liPages >= unPages {
				t.Errorf("LIMIT 5 read %d pages, unlimited read %d: limit did not bound pages", liPages, unPages)
			}
			// The pushed-down scan stops at the page holding the 5th
			// match; on a broad cut that is the first page or two.
			if liPages > 2 {
				t.Errorf("LIMIT 5 on a broad cut read %d pages, want <= 2", liPages)
			}
			if liRep.RowsExamined >= unRep.RowsExamined {
				t.Errorf("LIMIT 5 examined %d rows, unlimited %d", liRep.RowsExamined, unRep.RowsExamined)
			}
		})
	}
}

// TestStatementLimitZero: LIMIT 0 is valid, returns nothing, and
// touches no pages at all.
func TestStatementLimitZero(t *testing.T) {
	db := openDB(t, 2000)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	recs, rep := collectStatement(t, db, "SELECT * WHERE r < 24 LIMIT 0", PlanAuto)
	if len(recs) != 0 || rep.RowsReturned != 0 {
		t.Errorf("LIMIT 0 returned %d rows", len(recs))
	}
	if rep.DiskReads+rep.CacheHits != 0 || rep.RowsExamined != 0 {
		t.Errorf("LIMIT 0 touched pages: %+v", rep)
	}
}

// TestCursorCancellationStopsPageIO: cancelling the context after a
// few rows must stop the scan's page reads mid-flight, and the
// cursor's exact stats prove how much work was actually done.
func TestCursorCancellationStopsPageIO(t *testing.T) {
	db := openDB(t, 20000)
	_, full, err := db.QueryWhere("r < 30", PlanFullScan)
	if err != nil {
		t.Fatal(err)
	}
	fullPages := full.DiskReads + full.CacheHits

	ctx, cancel := context.WithCancel(context.Background())
	cur, err := db.ExecStatement(ctx, mustStatement(t, "SELECT * WHERE r < 30"), PlanFullScan)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < 3; i++ {
		if !cur.Next() {
			t.Fatalf("cursor dry after %d rows: %v", i, cur.Err())
		}
	}
	cancel()
	for cur.Next() {
	}
	if cur.Err() == nil {
		t.Fatal("cancelled cursor reports no error")
	}
	got := cur.Stats()
	if pages := got.DiskReads + got.CacheHits; pages >= fullPages/2 {
		t.Errorf("cancelled scan still touched %d of %d pages", pages, fullPages)
	}
}

// TestKNNStatementCancels: a kNN is cancellable mid-scan like every
// statement. Opened at k = N on a kd store, its context cancelled before
// the first pull, the drain ends in context.Canceled with no row emitted
// and at most one page read.
func TestKNNStatementCancels(t *testing.T) {
	const n = 5000
	db := openDB(t, n)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := db.ExecStatement(ctx, knnStatement(sky.GalaxyColors(0.2, 18), n), PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	cancel()
	rows := 0
	for cur.Next() {
		rows++
	}
	if !errors.Is(cur.Err(), context.Canceled) || rows != 0 {
		t.Fatalf("cancelled kNN drained %d rows, err %v; want none and context.Canceled", rows, cur.Err())
	}
	if rep := cur.Stats(); rep.PagesScanned > 1 || rep.DiskReads+rep.CacheHits > 1 {
		t.Errorf("cancelled kNN read %d pages (%d disk reads, %d cache hits), want at most one", rep.PagesScanned, rep.DiskReads, rep.CacheHits)
	}
}

// TestOrderByDistReusesKnn: an ascending dist() ordering with a
// LIMIT and no predicate is the kNN — the kd walk — and must return
// exactly NearestNeighbors' records, in distance order.
func TestOrderByDistReusesKnn(t *testing.T) {
	db := openDB(t, 4000)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	q := vec.Point{19.2, 18.8, 18.4, 18.2, 18.1}
	want, _, err := db.NearestNeighbors(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, rep := collectStatement(t, db,
		"SELECT * ORDER BY dist(19.2, 18.8, 18.4, 18.2, 18.1) LIMIT 7", PlanAuto)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("dist cursor returned %d rows, kNN %d (or contents differ)", len(got), len(want))
	}
	if rep.Plan != PlanKdTree {
		t.Errorf("dist cursor plan = %v, want the kd walk", rep.Plan)
	}
	// The scan-and-sort fallback (DESC, or with a predicate) must
	// agree with the brute-force ordering too.
	farthestFirst, _ := collectStatement(t, db,
		"SELECT * ORDER BY dist(19.2, 18.8, 18.4, 18.2, 18.1) DESC LIMIT 3", PlanAuto)
	if len(farthestFirst) != 3 {
		t.Fatalf("DESC dist returned %d rows", len(farthestFirst))
	}
	d2 := func(r *table.Record) float64 {
		var s float64
		for i := range q {
			d := q[i] - float64(r.Mags[i])
			s += d * d
		}
		return s
	}
	if d2(&farthestFirst[0]) < d2(&want[len(want)-1]) {
		t.Error("DESC dist did not return far records first")
	}
}

// TestProjectionPushdown: a projected statement decodes only the
// requested columns (plus what the pipeline itself needs).
func TestProjectionPushdown(t *testing.T) {
	db := openDB(t, 2000)
	// No WHERE, no ORDER BY: nothing but the projection is decoded.
	recs, _ := collectStatement(t, db, "SELECT g, r LIMIT 20", PlanAuto)
	if len(recs) != 20 {
		t.Fatalf("returned %d rows", len(recs))
	}
	cat, _ := db.Catalog()
	var full table.Record
	if err := cat.Get(0, &full); err != nil {
		t.Fatal(err)
	}
	r0 := recs[0]
	if r0.Mags != full.Mags {
		t.Error("projected magnitudes differ from the stored row")
	}
	if r0.ObjID != 0 || r0.Ra != 0 || r0.Dec != 0 || r0.Class != 0 || r0.LeafID != 0 {
		t.Errorf("unprojected columns were decoded: %+v", r0)
	}
	// A WHERE, of one clause or several, decodes nothing beyond the
	// projection either: no layer above the scan reads an identity.
	for _, src := range []string{"SELECT g WHERE r < 30 LIMIT 5", "SELECT g WHERE r < 30 OR g < 30 LIMIT 5"} {
		recs, _ = collectStatement(t, db, src, PlanAuto)
		if len(recs) != 5 {
			t.Fatalf("%q returned %d rows", src, len(recs))
		}
		if recs[0].ObjID != 0 || recs[1].ObjID != 0 {
			t.Errorf("%q decoded object ids it has no use for: %+v", src, recs[:2])
		}
	}
	// An ordering reads the ObjID its ties break on, and hides it again
	// — and still reads nothing of the rest.
	recs, _ = collectStatement(t, db, "SELECT g WHERE r < 30 ORDER BY r LIMIT 5", PlanAuto)
	if len(recs) != 5 {
		t.Fatalf("returned %d rows", len(recs))
	}
	if recs[0].ObjID != 0 || recs[1].ObjID != 0 {
		t.Errorf("the ordering's tie-break leaked object ids into the answer: %+v", recs[:2])
	}
	if recs[0].Ra != 0 || recs[0].Class != 0 {
		t.Errorf("unprojected columns were decoded: %+v", recs[0])
	}
	// Magnitudes decoded only for the predicate test must not leak
	// into the output, and the answer must look the same whether a
	// row came from an inside or a partial range of any plan.
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	for _, plan := range []Plan{PlanFullScan, PlanAuto} {
		cur, err := db.ExecStatement(context.Background(),
			mustStatement(t, "SELECT objid WHERE r < 22"), plan)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := Collect(cur)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if recs[i].Mags != ([table.Dim]float32{}) {
				t.Fatalf("plan %v row %d: filter-only magnitudes leaked into the projection: %+v",
					plan, i, recs[i])
			}
		}
	}
}

// TestStatementOpensOneStream: a three-clause WHERE is one statement to
// every layer — one cached Choice shared by pricing and execution, one
// snapshot, one RowStream under one accounting scope — not three
// queries behind a merge.
func TestStatementOpensOneStream(t *testing.T) {
	db := openDB(t, 3000)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	stmt := mustStatement(t, "SELECT objid WHERE r < 16 OR g - r > 0.9 OR u > 23")
	if cost := db.EstimateStatementCost(stmt); cost <= 0 {
		t.Fatalf("cost = %v", cost)
	}
	cur, err := db.ExecStatement(context.Background(), stmt, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if c := db.Cache().StatsFor(nsPlan); c.PlanBuilds != 1 || c.PlanHits != 1 {
		t.Errorf("plan tier built %d and reused %d entries for one statement, want 1 and 1", c.PlanBuilds, c.PlanHits)
	}
	sc, ok := cur.(*snapCursor)
	if !ok {
		t.Fatalf("statement cursor is a %T, want the snapshot holder over one stream", cur)
	}
	if _, ok := sc.Cursor.(*polyCursor); !ok {
		t.Fatalf("the snapshot holds a %T, want one scan stream", sc.Cursor)
	}
	if n := catalogPins(db); n != 1 {
		t.Errorf("%d snapshots pin the catalog under one statement", n)
	}
	rows := 0
	for cur.Next() {
		rows++
	}
	if err := cur.Err(); err != nil || rows == 0 {
		t.Fatalf("%d rows, err %v", rows, err)
	}
	cur.Close()
	if n := catalogPins(db); n != 0 {
		t.Errorf("%d snapshots pin the catalog after Close", n)
	}
}

// catalogPins counts the open snapshots that name the catalog's file.
func catalogPins(db *SpatialDB) int {
	db.mu.RLock()
	name := db.catalog.Name()
	db.mu.RUnlock()
	db.pinMu.Lock()
	defer db.pinMu.Unlock()
	return db.pins[name]
}

// TestStatementValidation: execution-time errors surface at
// ExecStatement, before any rows stream.
func TestStatementValidation(t *testing.T) {
	db := openDB(t, 500)
	if _, err := db.ExecStatement(context.Background(),
		mustStatement(t, "SELECT * WHERE r < 19"), Plan(3)); err == nil {
		t.Error("the retired Voronoi plan number should fail upfront")
	}
	empty, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if _, err := empty.ExecStatement(context.Background(),
		mustStatement(t, "SELECT *"), PlanAuto); err == nil {
		t.Error("statement on an empty database should fail upfront")
	}
}
