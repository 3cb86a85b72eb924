package core

import (
	"testing"

	"repro/internal/table"
)

// The synthetic catalog populates magnitudes ~14–24, so r < 5 is
// provably empty on every page, and so is u < 4: the kd walk emits no
// range for either, whatever the union.
var emptyCuts = []string{
	"SELECT objid, g, r WHERE r < 5",
	"SELECT objid, g, r WHERE u < 4 OR r < 5",
}

// brightRecord satisfies every empty cut above; only an insert puts it
// in the store, where the zone maps cannot see it.
func brightRecord(id int64) table.Record {
	return table.Record{ObjID: id, Mags: [table.Dim]float32{4.5, 4.4, 4.3, 4.2, 4.1}}
}

// TestEmptyCutWithLimitServedFromResultTier: an empty cut with a LIMIT
// is an ordinary result-cache entry — the repeat is found by the
// pre-admission probe and served with zero I/O — and an insert that
// satisfies the cut invalidates it.
func TestEmptyCutWithLimitServedFromResultTier(t *testing.T) {
	for i, src := range emptyCuts {
		t.Run(src, func(t *testing.T) {
			db := buildFullDBWithCache(t, t.TempDir(), 3000)
			defer db.Close()
			src += " LIMIT 100"

			recs, rep := execRows(t, db, src)
			if len(recs) != 0 || rep.FromCache {
				t.Fatalf("first run: %d rows, FromCache %v; want 0 rows, executed", len(recs), rep.FromCache)
			}
			if rep.DiskReads+rep.CacheHits != 0 {
				t.Errorf("first run read %d pages", rep.DiskReads+rep.CacheHits)
			}
			cur, ok := db.ExecStatementCached(parseStmt(t, src), PlanAuto)
			if !ok {
				t.Fatal("repeat not found by the cache probe")
			}
			recs, rep, err := Collect(cur)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 0 || !rep.FromCache {
				t.Fatalf("probe: %d rows, FromCache %v; want 0 rows from the cache", len(recs), rep.FromCache)
			}

			bright := brightRecord(7_000_000_000 + int64(i))
			if _, err := db.Insert([]table.Record{bright}); err != nil {
				t.Fatal(err)
			}
			if _, ok := db.ExecStatementCached(parseStmt(t, src), PlanAuto); ok {
				t.Error("stale empty answer found by the probe after an insert")
			}
			recs, rep = execRows(t, db, src)
			if rep.FromCache {
				t.Error("stale empty answer served after an insert")
			}
			if len(recs) != 1 || recs[0].ObjID != bright.ObjID {
				t.Fatalf("expected exactly the inserted row, got %d rows", len(recs))
			}
		})
	}
}

// TestEmptyCutWithoutLimitReadsNoPages: an empty cut with no LIMIT is
// never cached, yet every run reads no page — it streams over the cached
// plan's zero ranges — and a matching memtable row still reaches the
// answer.
func TestEmptyCutWithoutLimitReadsNoPages(t *testing.T) {
	db := buildFullDBWithCache(t, t.TempDir(), 3000)
	defer db.Close()
	run := func(src string, want int) {
		t.Helper()
		for i := 0; i < 2; i++ {
			recs, rep := execRows(t, db, src)
			if len(recs) != want {
				t.Fatalf("%q run %d: %d rows, want %d", src, i, len(recs), want)
			}
			if rep.FromCache {
				t.Errorf("%q run %d: an unbounded statement served from the cache", src, i)
			}
			if n := rep.DiskReads + rep.CacheHits; n != 0 {
				t.Errorf("%q run %d: read %d pages, want 0", src, i, n)
			}
		}
	}
	for _, src := range emptyCuts {
		run(src, 0)
	}
	if _, err := db.Insert([]table.Record{brightRecord(7_050_000_000)}); err != nil {
		t.Fatal(err)
	}
	for _, src := range emptyCuts {
		run(src, 1)
	}
}

// TestEmptyCutMemtableRow: when a memtable row satisfies the predicate —
// any one clause of it — the zone maps still prune every page, but the
// row is in the answer, bounded or not, on every run.
func TestEmptyCutMemtableRow(t *testing.T) {
	db := buildFullDBWithCache(t, t.TempDir(), 2000)
	defer db.Close()
	bright := brightRecord(7_100_000_000)
	if _, err := db.Insert([]table.Record{bright}); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"SELECT objid, g, r WHERE r < 5",
		"SELECT objid, g, r WHERE r < 3 OR u < 5", // the row is in the second clause only
		"SELECT objid, g, r WHERE r < 5 LIMIT 10",
		"SELECT objid, g, r WHERE r < 3 OR u < 5 LIMIT 10",
	} {
		for i := 0; i < 2; i++ {
			recs, _ := execRows(t, db, src)
			if len(recs) != 1 || recs[0].ObjID != bright.ObjID {
				t.Fatalf("%q run %d: expected the memtable row, got %d rows", src, i, len(recs))
			}
		}
	}
}

// TestCacheInvalidationOnInsertAndCompaction: the statement result
// cache must never serve an answer computed under a pre-insert or
// pre-compaction epoch.
func TestCacheInvalidationOnInsertAndCompaction(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDBWithCache(t, dir, 3000)
	defer db.Close()
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	const src = "SELECT objid, g, r WHERE g - r > 0.2 AND r < 20 LIMIT 40"

	execRows(t, db, src)
	if _, rep := execRows(t, db, src); !rep.FromCache {
		t.Fatal("warm-up did not cache")
	}

	if _, err := db.Insert([]table.Record{churnRecord(7_200_000_000)}); err != nil {
		t.Fatal(err)
	}
	if _, rep := execRows(t, db, src); rep.FromCache {
		t.Error("cache served a pre-insert answer")
	}
	if _, rep := execRows(t, db, src); !rep.FromCache {
		t.Fatal("re-warm after insert did not cache")
	}

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, rep := execRows(t, db, src); rep.FromCache {
		t.Error("cache served a pre-compaction answer")
	}
}
