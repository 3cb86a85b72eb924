package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/table"
)

// TestStreamMatchesSerialReference is the executor's identity matrix:
// {auto, kd, voronoi, pruned, fullscan} × {1, 4 workers} × {RAM pool,
// pin-floor pool}. Collect-all over Executor.Stream (QueryPolyhedron)
// must return exactly the serial per-index reference's rows, in
// physical order, and its scoped page stats must be exact: the page
// requests the serial reference makes over the same ranges when run
// solo, and not one more when three callers race the same query
// through the same store (run with -race).
func TestStreamMatchesSerialReference(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDB(t, dir, 6000)
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	queries := []string{"g - r > 0.2 AND r < 20", "r < 16.5"}
	plans := []Plan{PlanAuto, PlanKdTree, PlanVoronoi, PlanPrunedScan, PlanFullScan}

	for _, pool := range []struct {
		name  string
		pages int
	}{{"ram", 0}, {"pin-floor", 16}} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("pool=%s/workers=%d", pool.name, workers), func(t *testing.T) {
				re, err := OpenExisting(Config{Dir: dir, PoolPages: pool.pages, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				for _, where := range queries {
					q := colorsql.MustParse(where, colorsql.DefaultVars(), table.Dim).Single()
					for _, plan := range plans {
						name := fmt.Sprintf("%q/%v", where, plan)
						got, rep, err := re.QueryPolyhedron(q, plan)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if plan != PlanAuto && rep.Plan != plan {
							t.Fatalf("%s: executed as %v", name, rep.Plan)
						}
						// Auto is checked against the reference of the path
						// it resolved to.
						ids, tb, refPages, err := serialReference(re, q, rep.Plan)
						if err != nil {
							t.Fatalf("%s reference: %v", name, err)
						}
						want, err := materialize(tb, ids)
						if err != nil {
							t.Fatalf("%s reference: %v", name, err)
						}
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
						wantTouched := refPages.Hits + refPages.Misses
						if rep.Plan == PlanPrunedScan {
							// The reference read every page; the pruned stream
							// must account for each as scanned or skipped, and
							// read exactly the scanned ones.
							if rep.PagesScanned+rep.PagesSkipped != wantTouched {
								t.Errorf("%s: scanned %d + skipped %d pages, table has %d", name, rep.PagesScanned, rep.PagesSkipped, wantTouched)
							}
							wantTouched = rep.PagesScanned
						}
						if touched != wantTouched {
							t.Errorf("%s: stream touched %d pages, serial reference %d", name, touched, wantTouched)
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
