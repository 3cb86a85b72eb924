package core

import (
	"testing"

	"repro/internal/table"
)

// TestNegativeCacheProvablyEmpty: a statement whose every clause the
// zone maps prove empty — its one walk emits no range — short-circuits
// to a cached empty answer, and an insert that could satisfy the
// predicate invalidates the verdict.
func TestNegativeCacheProvablyEmpty(t *testing.T) {
	// The synthetic catalog populates magnitudes ~14–24; r < 5 is
	// provably empty on every page, and so is u < 4.
	for _, src := range []string{
		"SELECT objid, g, r WHERE r < 5",
		"SELECT objid, g, r WHERE u < 4 OR r < 5",
	} {
		t.Run(src, func(t *testing.T) { negativeCacheProvablyEmpty(t, src) })
	}
}

func negativeCacheProvablyEmpty(t *testing.T, src string) {
	dir := t.TempDir()
	db := buildFullDBWithCache(t, dir, 3000)
	defer db.Close()

	recs, rep := execRows(t, db, src)
	if len(recs) != 0 {
		t.Fatalf("expected empty answer, got %d rows", len(recs))
	}
	if rep.PlanReason != "negative cache: zone maps prove every clause empty" {
		t.Fatalf("plan reason = %q", rep.PlanReason)
	}
	if rep.FromCache {
		t.Error("first execution reported a cache hit")
	}

	recs, rep = execRows(t, db, src)
	if len(recs) != 0 {
		t.Fatalf("cached answer has %d rows", len(recs))
	}
	if !rep.FromCache {
		t.Error("repeat execution did not serve from the negative cache")
	}

	// An insert invisible to the zone maps must invalidate the
	// verdict: the memtable row satisfies the predicate.
	bright := table.Record{
		ObjID: 7_000_000_000,
		Mags:  [table.Dim]float32{4.5, 4.4, 4.3, 4.2, 4.1},
	}
	if _, err := db.Insert([]table.Record{bright}); err != nil {
		t.Fatal(err)
	}
	recs, rep = execRows(t, db, src)
	if rep.FromCache {
		t.Error("stale negative verdict served after an insert")
	}
	if len(recs) != 1 || recs[0].ObjID != bright.ObjID {
		t.Fatalf("expected exactly the inserted row, got %d rows", len(recs))
	}
}

// TestNegativeCacheMemtableBlocksVerdict: when a memtable row
// satisfies the predicate — any one clause of it — at fill time, no
// negative verdict may be recorded even though the zone maps prune
// every page.
func TestNegativeCacheMemtableBlocksVerdict(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDBWithCache(t, dir, 2000)
	defer db.Close()
	bright := table.Record{
		ObjID: 7_100_000_000,
		Mags:  [table.Dim]float32{4.5, 4.4, 4.3, 4.2, 4.1},
	}
	if _, err := db.Insert([]table.Record{bright}); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"SELECT objid, g, r WHERE r < 5",
		"SELECT objid, g, r WHERE r < 3 OR u < 5", // the row is in the second clause only
	} {
		for i := 0; i < 2; i++ {
			recs, rep := execRows(t, db, src)
			if len(recs) != 1 || recs[0].ObjID != bright.ObjID {
				t.Fatalf("%q run %d: expected the memtable row, got %d rows", src, i, len(recs))
			}
			if rep.PlanReason == "negative cache: zone maps prove every clause empty" {
				t.Fatalf("%q run %d: negative verdict recorded despite a matching memtable row", src, i)
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
