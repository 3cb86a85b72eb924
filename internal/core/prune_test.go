package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/table"
	"repro/internal/vec"
)

// TestIndexScanExactPageStats is the acceptance pin for the one index
// scan: a LIMIT-free selective color cut must read no page either
// level of the zone hierarchy could have excluded, and account for
// every page of the clustered table exactly. The flat per-page overlap
// is computed here by classifying the zones directly; the query's
// PagesScanned must equal the accounting scope's physical page touches
// (DiskReads + CacheHits), Inside ranges included, and its cold disk
// reads plus PagesSkipped must cover the table.
func TestIndexScanExactPageStats(t *testing.T) {
	db := buildFullDB(t, t.TempDir(), 6000)
	defer db.Close()

	const stmt = "SELECT objid, g, r WHERE g - r > 0.2 AND r < 18"
	where := colorsql.MustParse("g - r > 0.2 AND r < 18", colorsql.DefaultVars(), table.Dim)
	pred, err := table.CompilePagePred(where.Polys)
	if err != nil {
		t.Fatal(err)
	}

	zm := db.catalog.ZoneMaps()
	total := db.catalog.NumPages()
	overlap := 0
	for pg := 0; pg < total; pg++ {
		z, ok := zm.Page(pg)
		if !ok {
			t.Fatalf("no zone for page %d", pg)
		}
		if pred.Classify(&z) != vec.Outside {
			overlap++
		}
	}
	if overlap >= total {
		t.Fatalf("cut is not selective on this catalog: %d of %d pages overlap", overlap, total)
	}
	pl, err := db.Planner()
	if err != nil {
		t.Fatal(err)
	}
	choice, err := pl.Plan(where.Polys)
	if err != nil {
		t.Fatal(err)
	}
	inside := 0
	for _, r := range choice.Ranges {
		if !r.Filter {
			inside++
		}
	}
	if inside == 0 || inside == len(choice.Ranges) {
		t.Fatalf("cut yields %d unfiltered of %d ranges; the case needs both kinds", inside, len(choice.Ranges))
	}

	db.Engine().Store().DropCache()
	cur, err := db.QueryStatement(context.Background(), stmt, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	indexed, rep, err := Collect(cur)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan != PlanKdTree {
		t.Fatalf("plan = %v", rep.Plan)
	}
	// Physical accounting must agree with the iterators' own count:
	// every fetch of every range kind, and nothing else.
	if touched := rep.DiskReads + rep.CacheHits; rep.PagesScanned != touched {
		t.Errorf("PagesScanned = %d, scan touched %d pages (%d reads + %d hits)",
			rep.PagesScanned, touched, rep.DiskReads, rep.CacheHits)
	}
	// Ranges are page-aligned, so cold every page is read exactly once
	// or skipped: never more reads than the flat zone classification
	// would have made.
	if rep.CacheHits != 0 || rep.DiskReads == 0 || rep.DiskReads > int64(overlap) {
		t.Errorf("DiskReads = %d (+%d hits), flat zone classification overlaps %d pages", rep.DiskReads, rep.CacheHits, overlap)
	}
	if rep.DiskReads+rep.PagesSkipped != int64(total) {
		t.Errorf("read %d + skipped %d pages, table has %d", rep.DiskReads, rep.PagesSkipped, total)
	}
	if rep.StripsDecoded == 0 {
		t.Error("vectorized filter decoded no strips over partially overlapping pages")
	}
	// Examined counts the in-range rows of fetched pages only.
	if rep.RowsExamined >= int64(db.catalog.NumRows()) || rep.RowsExamined < rep.RowsReturned {
		t.Errorf("RowsExamined = %d of %d rows, %d returned", rep.RowsExamined, db.catalog.NumRows(), rep.RowsReturned)
	}

	// Pruning must be invisible in the answer: the full scan over the
	// same catalog returns the same rows in the same order, having
	// fetched every page and consulted no zone.
	cur, err = db.QueryStatement(context.Background(), stmt, PlanFullScan)
	if err != nil {
		t.Fatal(err)
	}
	full, frep, err := Collect(cur)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(indexed, full) {
		t.Fatalf("index scan returned %d rows, full scan %d: pruning changed the answer", len(indexed), len(full))
	}
	if pages := int64(db.catalog.NumPages()); frep.PagesSkipped != 0 || frep.PagesScanned != pages ||
		frep.DiskReads+frep.CacheHits != pages {
		t.Errorf("full scan skipped %d, scanned %d, touched %d of %d pages",
			frep.PagesSkipped, frep.PagesScanned, frep.DiskReads+frep.CacheHits, pages)
	}
	if n := db.Engine().Store().PinnedPages(); n != 0 {
		t.Errorf("%d pages left pinned", n)
	}
}

// TestReportOnlyPlansRejected: the plans that only label how a query
// ran are refused before any rows stream — the index scan's label too,
// on a store whose tree is built.
func TestReportOnlyPlansRejected(t *testing.T) {
	db := openDB(t, 500)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	for _, plan := range []Plan{PlanKdTree, PlanGrid, PlanPrunedScan} {
		if _, err := db.QueryStatement(context.Background(), "SELECT * WHERE r < 16", plan); err == nil {
			t.Errorf("forced %v accepted", plan)
		}
		q := colorsql.MustParse("r < 16", colorsql.DefaultVars(), table.Dim).Single()
		if _, _, err := db.QueryPolyhedron(q, plan); err == nil {
			t.Errorf("forced %v accepted by QueryPolyhedron", plan)
		}
	}
}

// TestWrongDimensionIsCursorOpenError: a polyhedron whose planes do
// not match the catalog's dimension fails at cursor open under every
// plan instead of silently scanning unpruned.
func TestWrongDimensionIsCursorOpenError(t *testing.T) {
	db := openDB(t, 500)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	q := vec.NewPolyhedron(vec.NewHalfspace(vec.Point{0, 0, 1}, 18))
	for _, plan := range []Plan{PlanAuto, PlanFullScan} {
		if _, _, err := db.QueryPolyhedron(q, plan); err == nil {
			t.Errorf("plan %v: 3-D plane accepted against the 5-D catalog", plan)
		}
	}
	if _, _, err := db.QueryUnion(colorsql.Union{Polys: []vec.Polyhedron{q}}, PlanAuto); err == nil {
		t.Error("QueryUnion accepted a 3-D plane")
	}
	if n := db.Engine().Store().PinnedPages(); n != 0 {
		t.Errorf("%d pages left pinned", n)
	}
}

// TestStaleChoiceReplanned: a cached planner choice whose ranges were
// derived from one kd clustering must never run against a snapshot of
// another. The plan is cached, an insert and a full compaction swap
// the tree and rewrite the clustered table, and the cursor is then
// handed the stale choice: it must re-plan against its snapshot and
// return exactly the full scan's rows.
func TestStaleChoiceReplanned(t *testing.T) {
	db := buildFullDB(t, t.TempDir(), 4000)
	defer db.Close()
	const where = "g - r > 0.2 AND r < 20"
	u := colorsql.MustParse(where, colorsql.DefaultVars(), table.Dim)
	q := u.Single()

	stale, err := db.planFor(u)
	if err != nil {
		t.Fatal(err)
	}
	inside := false
	for _, r := range stale.Ranges {
		inside = inside || !r.Filter
	}
	if !inside {
		t.Fatal("cut has no Inside range; a stale choice could not stream a wrong row")
	}

	// Rows that sort into the middle of the kd order shift every later
	// row of the rebuilt clustering.
	recs := make([]table.Record, 300)
	for i := range recs {
		recs[i] = churnRecord(7_300_000_000 + int64(i))
	}
	if _, err := db.Insert(recs); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactFull(); err != nil {
		t.Fatal(err)
	}
	if stale.Tree == db.KdTree() {
		t.Fatal("full compaction did not swap the kd-tree")
	}

	sn, err := db.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sn.release()
	cur, err := db.whereCursorSnap(context.Background(), sn, u.Polys, PlanAuto, cursorOpts{cols: table.ColAll, stopAfter: -1, choice: stale})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Collect(cur)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialReference(db, q)
	if err != nil {
		t.Fatal(err)
	}
	sortRecords(got)
	sortRecords(want)
	if len(want) == 0 || !reflect.DeepEqual(projectUser(got), projectUser(want)) {
		t.Fatalf("stale choice streamed %d rows, brute force finds %d", len(got), len(want))
	}
	if n := db.Engine().Store().PinnedPages(); n != 0 {
		t.Errorf("%d pages left pinned", n)
	}
}

// projectUser keeps the user columns: index-owned columns (leaf ids,
// grid ranks) legitimately differ between the clustered copies.
func projectUser(recs []table.Record) []table.Record {
	out := make([]table.Record, len(recs))
	for i := range recs {
		out[i] = recs[i].Project(table.ColObjID | table.ColMags | table.ColRa | table.ColDec | table.ColRedshift | table.ColClass)
	}
	return out
}
