package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
)

// parseStmt is a test shorthand.
func parseStmt(t testing.TB, src string) colorsql.Statement {
	t.Helper()
	stmt, err := colorsql.ParseStatement(src, colorsql.DefaultVars(), table.Dim)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// execRows runs one statement and returns its rows and report.
func execRows(t testing.TB, db *SpatialDB, src string) ([]table.Record, Report) {
	t.Helper()
	cur, err := db.QueryStatement(context.Background(), src, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	recs, rep, err := Collect(cur)
	if err != nil {
		t.Fatal(err)
	}
	return recs, rep
}

// buildFullDBWithCache is buildFullDB with the tier-2 result cache
// enabled.
func buildFullDBWithCache(t testing.TB, dir string, rows int) *SpatialDB {
	t.Helper()
	db, err := Open(Config{Dir: dir, ResultCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	params := sky.DefaultParams(rows, 42)
	params.SpectroFrac = 0.15
	if err := db.IngestSynthetic(params); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildGridIndex(256, 7); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildPhotoZ(16, 1); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestStatementCacheRepeatIsExact: with the cache on, the second
// identical statement returns byte-identical rows, reports FromCache
// with zero I/O, and keeps the plan metadata.
func TestStatementCacheRepeatIsExact(t *testing.T) {
	db := buildFullDBWithCache(t, t.TempDir(), 3000)
	defer db.Close()
	const src = "SELECT objid, g, r WHERE g - r > 0.2 AND r < 20 LIMIT 40"

	first, repA := execRows(t, db, src)
	second, repB := execRows(t, db, src)
	if repA.FromCache {
		t.Error("first execution claims FromCache")
	}
	if !repB.FromCache {
		t.Fatal("second execution not FromCache")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached rows differ: %d vs %d", len(second), len(first))
	}
	if repB.DiskReads != 0 || repB.RowsExamined != 0 || repB.PagesScanned != 0 || repB.PagesSkipped != 0 {
		t.Errorf("cached report has I/O: %+v", repB)
	}
	if repB.Plan != repA.Plan || repB.EstimatedSelectivity != repA.EstimatedSelectivity {
		t.Errorf("cached report lost plan metadata: %+v vs %+v", repB, repA)
	}
	if repB.RowsReturned != int64(len(second)) {
		t.Errorf("cached RowsReturned = %d, want %d", repB.RowsReturned, len(second))
	}

	c := db.Cache().StatsFor("query")
	if c.Misses != 1 || c.Hits != 1 {
		t.Errorf("query counters = %+v, want 1 miss 1 hit", c)
	}

	// An unbounded statement bypasses tier 2 and streams both times.
	const unbounded = "SELECT objid, g, r WHERE g - r > 0.2 AND r < 18"
	execRows(t, db, unbounded)
	_, rep := execRows(t, db, unbounded)
	if rep.FromCache {
		t.Error("LIMIT-free statement served from cache")
	}
	if c := db.Cache().StatsFor("query"); c.Bypasses < 2 {
		t.Errorf("bypasses = %d, want >= 2", c.Bypasses)
	}
}

// TestStatementCacheSingleflight: N concurrent identical statements
// through ExecStatement execute once; every caller gets the same
// rows. Run under -race in CI.
func TestStatementCacheSingleflight(t *testing.T) {
	db := buildFullDBWithCache(t, t.TempDir(), 3000)
	defer db.Close()
	const src = "SELECT objid, g, r WHERE g - r > 0.25 AND r < 19 LIMIT 60"
	stmt := parseStmt(t, src)

	const n = 16
	rows := make([][]table.Record, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cur, err := db.ExecStatement(context.Background(), stmt, PlanAuto)
			if err != nil {
				errs[i] = err
				return
			}
			rows[i], _, errs[i] = Collect(cur)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(rows[0], rows[i]) {
			t.Fatalf("goroutine %d got different rows (%d vs %d)", i, len(rows[i]), len(rows[0]))
		}
	}
	c := db.Cache().StatsFor("query")
	if c.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 execution for %d concurrent callers", c.Misses, n)
	}
	if c.Hits+c.Shared != n-1 {
		t.Errorf("hits %d + shared %d = %d, want %d", c.Hits, c.Shared, c.Hits+c.Shared, n-1)
	}
}

// TestEpochInvalidationOnMutation: a persisted mutation (manifest
// epoch bump) and an in-process index build (plan generation bump)
// each invalidate cached answers; the re-executed statement reflects
// the new data.
func TestEpochInvalidationOnMutation(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDBWithCache(t, dir, 3000)
	defer db.Close()
	const src = "SELECT objid, g, r WHERE g - r > 0.2 AND r < 20 LIMIT 40"

	execRows(t, db, src)
	if _, rep := execRows(t, db, src); !rep.FromCache {
		t.Fatal("warm-up did not cache")
	}

	// Persist rewrites the manifest (this session mutated the store),
	// bumping the durable epoch: every cached entry is now stale.
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if _, rep := execRows(t, db, src); rep.FromCache {
		t.Error("cache survived a Persist epoch bump")
	}
	if c := db.Cache().StatsFor("query"); c.Invalidated < 1 {
		t.Errorf("invalidated = %d, want >= 1", c.Invalidated)
	}

	// Re-warming after the bump caches again under the new epoch.
	if _, rep := execRows(t, db, src); !rep.FromCache {
		t.Fatal("re-warm did not cache")
	}

	// Reopen after Persist: the fresh process serves correct answers
	// and caches under the persisted epoch.
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	want, _ := execRows(t, db, src)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenExisting(Config{Dir: dir, ResultCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _ := execRows(t, re, src)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("answers differ across reopen: %d vs %d rows", len(got), len(want))
	}
	if _, rep := execRows(t, re, src); !rep.FromCache {
		t.Error("reopened database does not cache")
	}
}

// TestCachePressureShrink: pinning most of a small pool raises the
// pressure signal; MaintainCache then sheds cached bytes, and no
// cached entry holds a page pin (releasing the pins leaves
// PinnedPages at zero).
func TestCachePressureShrink(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDB(t, dir, 3000)
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A small budget makes the shrink observable: at rest all three
	// warmed entries (~3 KiB each) fit; at ~90% pool pressure the
	// effective budget collapses below one entry.
	re, err := OpenExisting(Config{Dir: dir, PoolPages: 64, ResultCacheBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	// Warm several entries.
	for _, src := range []string{
		"SELECT objid, g, r WHERE g - r > 0.2 AND r < 20 LIMIT 40",
		"SELECT objid, g, r WHERE g - r > 0.3 AND r < 19 LIMIT 40",
		"SELECT objid WHERE r < 16 LIMIT 30",
	} {
		execRows(t, re, src)
	}
	if re.Cache().ResultEntries() == 0 {
		t.Fatal("nothing cached before pressure")
	}

	// Pin ~90% of the pool, drawing pages from every persisted file.
	store := re.Engine().Store()
	const nPin = 58
	pinned := make([]*pagestore.Page, 0, nPin)
	for name := range store.ManifestFiles() {
		f, filePages, err := store.OpenFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(filePages) && len(pinned) < nPin; i++ {
			p, err := store.Get(pagestore.PageID{File: f, Num: pagestore.PageNum(i)})
			if err != nil {
				// A fully-pinned shard cannot admit this page; keep
				// pinning from pages that hash elsewhere.
				continue
			}
			pinned = append(pinned, p)
		}
		if len(pinned) == nPin {
			break
		}
	}
	if len(pinned) < nPin {
		t.Fatalf("only %d pages available to pin, want %d", len(pinned), nPin)
	}

	before := re.Cache().ResultEntries()
	re.MaintainCache()
	if got := re.Cache().ResultEntries(); got >= before {
		t.Errorf("%d entries survive ~90%% pool pressure, want < %d", got, before)
	}
	if c := re.Cache().StatsFor("query"); c.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", c.Evictions)
	}

	// The cache held no pins of its own.
	for _, p := range pinned {
		p.Release()
	}
	if n := store.PinnedPages(); n != 0 {
		t.Errorf("%d pages still pinned after release", n)
	}

	// With pressure gone the cache refills.
	execRows(t, re, "SELECT objid WHERE r < 16 LIMIT 30")
	re.MaintainCache()
	if re.Cache().ResultEntries() == 0 {
		t.Error("cache does not refill after pressure releases")
	}
}

// TestOrderByDrainUsesIndexScan pins the ORDER BY drain path to the
// index scan: a selective cut under an ordering must skip pages, not
// fall back to an unpruned full scan.
func TestOrderByDrainUsesIndexScan(t *testing.T) {
	db := buildFullDB(t, t.TempDir(), 6000)
	defer db.Close()
	_, rep := execRows(t, db, "SELECT objid, g, r WHERE r < 15 ORDER BY g - r LIMIT 10")
	if rep.PagesSkipped == 0 {
		t.Errorf("ORDER BY drain skipped no pages (plan %v, reason %q, scanned %d)",
			rep.Plan, rep.PlanReason, rep.PagesScanned)
	}
	if rep.RowsReturned != 10 {
		t.Errorf("rows = %d, want 10", rep.RowsReturned)
	}
}
