package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/colorsql"
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

// referenceRows is the serial reference's answer for plan, extended
// over what the per-index references cannot see: the rows a minor
// compaction appended past the index's coverage, filtered one by one,
// and then the matching memtable rows in commit order.
func referenceRows(t *testing.T, db *SpatialDB, q vec.Polyhedron, plan Plan) ([]table.Record, int64) {
	t.Helper()
	ids, tb, pages, err := serialReference(db, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	covered := tb.NumRows() // the full scan reads the tail itself
	if plan == PlanKdTree {
		covered = db.kd.NumRows
	}
	err = tb.ScanRange(table.RowID(covered), table.RowID(tb.NumRows()), func(id table.RowID, r *table.Record) bool {
		if q.Contains(r.Point()) {
			ids = append(ids, id)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := materialize(tb, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range db.memSnapshot() {
		if q.Contains(row.Rec.Point()) {
			want = append(want, row.Rec)
		}
	}
	return want, pages.Hits + pages.Misses
}

// TestStreamMatchesSerialReference is the executor's identity matrix:
// {kd built, kd absent} × {no tail, minor-compacted tail, memtable
// rows} as stores, {auto, kd, fullscan} × {RAM pool, pin-floor pool}
// × {GOMAXPROCS 1, 4} over each. Collect-all over planner.Stream
// (QueryPolyhedron) must return exactly the per-index reference's rows,
// in physical order, and its scoped page stats must be exact:
// PagesScanned is the scope's own page touches, the index scan touches
// no more than its walk, the full scan exactly what its reference
// touches, and not one page more when three callers race the same
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
								checkStreamIdentity(t, re, fmt.Sprintf("%q/%v", where, plan), q, plan, indexed, tail)
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

func checkStreamIdentity(t *testing.T, re *SpatialDB, name string, q vec.Polyhedron, plan Plan, indexed bool, tail string) {
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
	// Auto is checked against the reference of the path it resolved to.
	want, refTouched := referenceRows(t, re, q, rep.Plan)
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
	switch rep.Plan {
	case PlanKdTree:
		// The serial walk reads every page of every Inside subtree and
		// partial leaf, node by node; the index scan coalesces them and
		// skips pages their own zone rules out. The reference does not
		// read the tail.
		if tail != "compacted" && touched > refTouched {
			t.Errorf("%s: index scan touched %d pages, the serial kd walk %d", name, touched, refTouched)
		}
	case PlanPrunedScan:
		if rep.PagesScanned+rep.PagesSkipped != refTouched {
			t.Errorf("%s: scanned %d + skipped %d pages, table has %d", name, rep.PagesScanned, rep.PagesSkipped, refTouched)
		}
	case PlanFullScan:
		if touched != refTouched {
			t.Errorf("%s: stream touched %d pages, serial reference %d", name, touched, refTouched)
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
