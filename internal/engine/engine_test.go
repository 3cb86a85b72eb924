package engine

import (
	"testing"

	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

func newDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func loadCatalog(t *testing.T, db *DB, n int) *table.Table {
	t.Helper()
	tb, err := db.CreateTable("mag.tbl")
	if err != nil {
		t.Fatal(err)
	}
	if err := sky.GenerateTable(tb, sky.DefaultParams(n, 42)); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestCatalog(t *testing.T) {
	db := newDB(t)
	if _, err := db.CreateTable("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("a"); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := db.Table("a"); err != nil {
		t.Error(err)
	}
	if _, err := db.Table("missing"); err == nil {
		t.Error("missing table should fail")
	}
	if got := db.TableNames(); len(got) != 1 || got[0] != "a" {
		t.Errorf("TableNames = %v", got)
	}
}

func TestFullScanPolyhedronMatchesBruteForce(t *testing.T) {
	db := newDB(t)
	tb := loadCatalog(t, db, 3000)

	// Query: a color cut similar in spirit to Figure 2 — a band in g-r.
	q := vec.NewPolyhedron(
		vec.NewHalfspace(vec.Point{0, 1, -1, 0, 0}, 1.0),  // g-r <= 1.0
		vec.NewHalfspace(vec.Point{0, -1, 1, 0, 0}, -0.4), // g-r >= 0.4
	)
	ids, stats, err := FullScanPolyhedron(tb, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsExamined != int64(tb.NumRows()) {
		t.Errorf("examined %d rows, want %d", stats.RowsExamined, tb.NumRows())
	}
	if stats.RowsReturned != int64(len(ids)) {
		t.Errorf("stats returned %d, ids %d", stats.RowsReturned, len(ids))
	}

	// Brute force over decoded records.
	want := map[table.RowID]bool{}
	tb.Scan(func(id table.RowID, r *table.Record) bool {
		if q.Contains(r.Point()) {
			want[id] = true
		}
		return true
	})
	if len(want) != len(ids) {
		t.Fatalf("full scan returned %d, brute force %d", len(ids), len(want))
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("row %d wrongly returned", id)
		}
	}
	if len(ids) == 0 {
		t.Fatal("query returned nothing; pick a wider band")
	}
}

func TestFullScanReadsEveryPageOnce(t *testing.T) {
	db := newDB(t)
	tb := loadCatalog(t, db, 5000)
	tb.Store().DropCache()
	_, stats, err := FullScanPolyhedron(tb, vec.NewPolyhedron())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stats.Pages.DiskReads, int64(tb.NumPages()); got != want {
		t.Errorf("cold full scan read %d pages, want %d", got, want)
	}
	if stats.RowsReturned != int64(tb.NumRows()) {
		t.Errorf("empty polyhedron should return all rows")
	}
}

func TestStatsString(t *testing.T) {
	s := QueryStats{RowsReturned: 5, RowsExamined: 10}
	if s.Selectivity() != 0.5 {
		t.Errorf("Selectivity = %v", s.Selectivity())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	var zero QueryStats
	if zero.Selectivity() != 0 {
		t.Error("zero stats selectivity should be 0")
	}
}
