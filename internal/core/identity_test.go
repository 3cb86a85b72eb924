package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/kdtree"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// identityStore builds and persists one input of the identity matrix:
// every index or none, then optionally rows a minor compaction appended
// past the indexes' coverage (the unindexed tail) or rows still in the
// memtable (recovered from the WAL at reopen).
func identityStore(t *testing.T, dir string, indexed bool, tail string) {
	t.Helper()
	var db *SpatialDB
	if indexed {
		db = buildFullDB(t, dir, 6000)
	} else {
		var err error
		if db, err = Open(Config{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		p := sky.DefaultParams(6000, 42)
		p.SpectroFrac = 0.15
		if err := db.IngestSynthetic(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if tail != "none" {
		// Enough rows to span several pages, spread across both cuts.
		recs := make([]table.Record, 700)
		for i := range recs {
			recs[i] = churnRecord(7_400_000_000 + int64(i))
			recs[i].Mags[2] = 15 + float32(i%60)/10 // r in [15, 21)
		}
		if _, err := db.Insert(recs); err != nil {
			t.Fatal(err)
		}
		if tail == "compacted" {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// referenceRows is the brute-force answer over everything the store
// holds: the serial reference over the catalog — the rows a minor
// compaction appended past the indexes' coverage included — and then
// the matching memtable rows in commit order.
func referenceRows(t *testing.T, db *SpatialDB, q vec.Polyhedron) []table.Record {
	t.Helper()
	want, err := serialReference(db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range db.memSnapshot() {
		if q.Contains(row.Rec.Point()) {
			want = append(want, row.Rec)
		}
	}
	return want
}

// kdPageBound is the most pages the index scan may touch for q: the
// distinct pages spanned by the kd walk's ranges and by the unindexed
// tail past the tree's rows. The scan coalesces the ranges and skips
// pages their own zone rules out, so it can only touch fewer.
func kdPageBound(db *SpatialDB, q vec.Polyhedron) int64 {
	ranges, _ := db.kd.CollectRanges([]vec.Polyhedron{q})
	if n := table.RowID(db.catalog.NumRows()); table.RowID(db.kd.NumRows) < n {
		ranges = append(ranges, kdtree.Range{Lo: table.RowID(db.kd.NumRows), Hi: n})
	}
	const rpp = table.RecordsPerPage
	var pages int64
	last := int64(-1)
	for _, r := range ranges {
		lo, hi := int64(r.Lo/rpp), int64((r.Hi-1)/rpp)
		pages += hi - max(lo, last+1) + 1
		last = hi
	}
	return pages
}

// TestStreamMatchesSerialReference is the executor's identity matrix:
// {kd built, kd absent} × {no tail, minor-compacted tail, memtable
// rows} as stores, {auto, kd, fullscan} × {RAM pool, pin-floor pool}
// × {GOMAXPROCS 1, 4} over each. Collect-all over planner.Stream
// (QueryPolyhedron) must return exactly the brute-force reference's
// rows, in physical order, and its scoped page stats must be exact:
// PagesScanned is the scope's own page touches, the index scan touches
// no more pages than its ranges span, the full scan every page of the
// catalog once, and not one page more when three callers race the same
// query through the same store (run with -race). A statement runs on
// its caller's goroutine, so none of this may depend on how many cores
// the process may use.
func TestStreamMatchesSerialReference(t *testing.T) {
	queries := []string{"g - r > 0.2 AND r < 20", "r < 16.5"}
	for _, indexed := range []bool{true, false} {
		for _, tail := range []string{"none", "compacted", "memtable"} {
			dir := t.TempDir()
			identityStore(t, dir, indexed, tail)
			plans := []Plan{PlanAuto, PlanFullScan}
			if indexed {
				plans = []Plan{PlanAuto, PlanKdTree, PlanFullScan}
			}
			for _, pool := range []struct {
				name  string
				pages int
			}{{"ram", 0}, {"pin-floor", 16}} {
				for _, procs := range []int{1, 4} {
					t.Run(fmt.Sprintf("indexed=%v/tail=%s/pool=%s/procs=%d", indexed, tail, pool.name, procs), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						re, err := OpenExisting(Config{Dir: dir, PoolPages: pool.pages})
						if err != nil {
							t.Fatal(err)
						}
						defer re.Close()
						for _, where := range queries {
							q := colorsql.MustParse(where, colorsql.DefaultVars(), table.Dim).Single()
							for _, plan := range plans {
								checkStreamIdentity(t, re, fmt.Sprintf("%q/%v", where, plan), q, plan, indexed)
							}
						}
						if n := re.Engine().Store().PinnedPages(); n != 0 {
							t.Errorf("%d pages left pinned", n)
						}
						if ev := re.Engine().Store().Stats().Evictions; pool.pages > 0 && ev == 0 {
							t.Errorf("%d-page pool evicted nothing; the case is not exercising pressure", pool.pages)
						}
					})
				}
			}
		}
	}
}

func checkStreamIdentity(t *testing.T, re *SpatialDB, name string, q vec.Polyhedron, plan Plan, indexed bool) {
	t.Helper()
	got, rep, err := re.QueryPolyhedron(q, plan)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	switch {
	case plan != PlanAuto:
		if rep.Plan != plan {
			t.Fatalf("%s: executed as %v", name, rep.Plan)
		}
	case indexed:
		if rep.Plan != PlanKdTree {
			t.Fatalf("%s: auto executed as %v", name, rep.Plan)
		}
	default:
		// Without a tree the index scan is zone pruning alone, and says so.
		if rep.Plan != PlanPrunedScan {
			t.Fatalf("%s: auto without a kd-tree executed as %v", name, rep.Plan)
		}
	}
	want := referenceRows(t, re, q)
	if len(want) == 0 {
		t.Fatalf("%s: reference is empty; the case checks nothing", name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: stream rows diverge from the serial reference (%d vs %d rows)", name, len(got), len(want))
	}
	if rep.RowsReturned != int64(len(want)) {
		t.Errorf("%s: report counts %d rows, returned %d", name, rep.RowsReturned, len(want))
	}
	touched := rep.DiskReads + rep.CacheHits
	if rep.PagesScanned != touched {
		t.Errorf("%s: PagesScanned = %d, scope touched %d pages", name, rep.PagesScanned, touched)
	}
	tablePages := int64(re.catalog.NumPages())
	switch rep.Plan {
	case PlanKdTree:
		if bound := kdPageBound(re, q); touched > bound {
			t.Errorf("%s: index scan touched %d pages, its ranges and the tail span %d", name, touched, bound)
		}
	case PlanPrunedScan:
		if rep.PagesScanned+rep.PagesSkipped != tablePages {
			t.Errorf("%s: scanned %d + skipped %d pages, table has %d", name, rep.PagesScanned, rep.PagesSkipped, tablePages)
		}
	case PlanFullScan:
		if touched != tablePages {
			t.Errorf("%s: stream touched %d pages, table has %d", name, touched, tablePages)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				recs, r, err := re.QueryPolyhedron(q, plan)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(recs, want) {
					errs <- fmt.Errorf("concurrent caller got %d rows, want %d", len(recs), len(want))
					return
				}
				if n := r.DiskReads + r.CacheHits; n != touched {
					errs <- fmt.Errorf("concurrent caller touched %d pages, solo %d", n, touched)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("%s: %v", name, err)
	}
}
