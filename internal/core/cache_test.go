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

	// A bare polyhedron plans through tier 1 like any WHERE: its repeat,
	// and a statement with the same predicate, reuse the plan its first
	// run built.
	const where = "g - r > 0.5 AND r < 19"
	poly := colorsql.MustParse(where, colorsql.DefaultVars(), table.Dim).Single()
	before := db.Cache().StatsFor(nsPlan)
	for range 2 {
		if _, _, err := db.QueryPolyhedron(poly, PlanAuto); err != nil {
			t.Fatal(err)
		}
	}
	execRows(t, db, "SELECT objid WHERE "+where)
	if after := db.Cache().StatsFor(nsPlan); after.PlanBuilds-before.PlanBuilds != 1 || after.PlanHits-before.PlanHits != 2 {
		t.Errorf("two polyhedron queries and their statement built %d plans and reused %d, want 1 and 2",
			after.PlanBuilds-before.PlanBuilds, after.PlanHits-before.PlanHits)
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

// TestOneCacheEntryPerStatement: each distinct bounded statement costs
// the result tier one entry — an empty cut included — and its repeat is
// found by the pre-admission probe.
func TestOneCacheEntryPerStatement(t *testing.T) {
	db := buildFullDBWithCache(t, t.TempDir(), 3000)
	defer db.Close()
	srcs := []string{
		"SELECT objid, g, r WHERE g - r > 0.2 AND r < 20 LIMIT 40",
		"SELECT objid WHERE r < 16 LIMIT 30",
		"SELECT objid WHERE u < 4 OR r < 5 LIMIT 10", // provably empty
		"SELECT objid, u WHERE u - g > 1 LIMIT 25",
		"SELECT objid, g, r WHERE r < 5 LIMIT 100", // provably empty
	}
	for i, src := range srcs {
		execRows(t, db, src)
		if got := db.Cache().ResultEntries(); got != i+1 {
			t.Fatalf("after %d distinct statements: %d result entries, want %d", i+1, got, i+1)
		}
	}
	for _, src := range srcs {
		cur, ok := db.ExecStatementCached(parseStmt(t, src), PlanAuto)
		if !ok {
			t.Fatalf("%q: repeat not found by the cache probe", src)
		}
		cur.Close()
	}
	if got := db.Cache().ResultEntries(); got != len(srcs) {
		t.Errorf("%d result entries after the repeats, want %d", got, len(srcs))
	}
}

// TestResultBudgetIgnoresPoolPins: the result budget is fixed — pinning
// most of a small pool neither shrinks it nor evicts cached answers,
// including while a new answer is inserted, and no cached entry holds
// a page pin (releasing the test's pins leaves PinnedPages at zero).
func TestResultBudgetIgnoresPoolPins(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDB(t, dir, 3000)
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	const budget = 32 << 10 // three ~3 KiB entries fit with room to spare
	re, err := OpenExisting(Config{Dir: dir, PoolPages: 64, ResultCacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	warm := []string{
		"SELECT objid, g, r WHERE g - r > 0.2 AND r < 20 LIMIT 40",
		"SELECT objid, g, r WHERE g - r > 0.3 AND r < 19 LIMIT 40",
		"SELECT objid WHERE r < 16 LIMIT 30",
	}
	for _, src := range warm {
		execRows(t, re, src)
	}
	before := re.Cache().ResultEntries()
	if before < len(warm) {
		t.Fatalf("%d entries cached, want at least %d", before, len(warm))
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

	// A provably empty cut reads no page, so it runs under the pins and
	// inserts a fourth entry.
	if recs, _ := execRows(t, re, "SELECT objid WHERE r < 5 LIMIT 10"); len(recs) != 0 {
		t.Fatalf("empty cut returned %d rows", len(recs))
	}
	if got := re.Cache().ResultEntries(); got <= before {
		t.Errorf("%d entries after an insert with ~90%% of the pool pinned, %d before", got, before)
	}
	if c := re.Cache().StatsFor("query"); c.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", c.Evictions)
	}
	if got := re.CacheStatsSnapshot().BudgetBytes; got != budget {
		t.Errorf("BudgetBytes = %d with the pool pinned, want %d", got, budget)
	}
	for _, src := range warm {
		if _, rep := execRows(t, re, src); !rep.FromCache {
			t.Errorf("%q not served from the cache with the pool pinned", src)
		}
	}

	// The cache held no pins of its own.
	for _, p := range pinned {
		p.Release()
	}
	if n := store.PinnedPages(); n != 0 {
		t.Errorf("%d pages still pinned after release", n)
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
