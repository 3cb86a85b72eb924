package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/vec"
)

// batchAnswers captures the batched serving paths (not covered by
// collectAnswers) for the eviction-churn matrix.
type batchAnswers struct {
	knn    [][]float64 // per query, ObjIDs as floats for compact compare
	photoz []float64
}

func collectBatchAnswers(t testing.TB, db *SpatialDB) batchAnswers {
	t.Helper()
	ans, err := batchAnswersOf(db)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

// batchAnswersOf is the error-returning form, safe to call from
// non-test goroutines (t.Fatal must only run on the test goroutine).
func batchAnswersOf(db *SpatialDB) (batchAnswers, error) {
	qs := []vec.Point{
		{19.2, 18.8, 18.4, 18.2, 18.1},
		{20.5, 20.0, 19.6, 19.4, 19.3},
		{17.4, 17.1, 16.9, 16.8, 16.7},
		{21.2, 20.8, 20.5, 20.2, 20.1},
	}
	recs, _, err := db.NearestNeighborsBatch(context.Background(), qs, 8)
	if err != nil {
		return batchAnswers{}, err
	}
	var ans batchAnswers
	for _, nbs := range recs {
		ids := make([]float64, len(nbs))
		for j := range nbs {
			ids[j] = float64(nbs[j].ObjID)
		}
		ans.knn = append(ans.knn, ids)
	}
	zs, _, err := db.EstimateRedshiftBatch(context.Background(), qs)
	if err != nil {
		return batchAnswers{}, err
	}
	ans.photoz = zs
	return ans, nil
}

// TestEvictionChurnMatrix is the pressure-correctness matrix: every
// query path — full scan, kd-tree, auto plan, kNN (single
// and batch), photo-z batch, grid sampling — must return answers
// byte-identical to a RAM-sized pool when served from a cold-opened
// database through a pool barely above the pin floor (constant
// eviction churn on every page access). Run under -race in CI.
func TestEvictionChurnMatrix(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDB(t, dir, 6000)
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference answers from a RAM-sized pool (the whole database
	// resident), itself cold-opened so the comparison spans identical
	// code paths.
	ref, err := OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var totalPages int64
	for _, pages := range ref.Engine().Store().ManifestFiles() {
		totalPages += int64(pages)
	}
	want := collectAnswers(t, ref)
	wantBatch := collectBatchAnswers(t, ref)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	pools := []struct {
		name  string
		pages int
	}{
		{"pin-floor", 16}, // barely above the deepest pin chain
		{"10pct", int(totalPages / 10)},
	}
	for _, pool := range pools {
		t.Run(fmt.Sprintf("pool=%s", pool.name), func(t *testing.T) {
			if int64(pool.pages) >= totalPages {
				t.Fatalf("pool %d does not undersize the %d-page database; the test would not churn", pool.pages, totalPages)
			}
			re, err := OpenExisting(Config{Dir: dir, PoolPages: pool.pages})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()

			got := collectAnswers(t, re)
			for plan, wrecs := range want.poly {
				if !reflect.DeepEqual(wrecs, got.poly[plan]) {
					t.Errorf("plan %v: answers differ under churn (%d vs %d rows)", plan, len(got.poly[plan]), len(wrecs))
				}
			}
			for i, wrecs := range want.stmts {
				if !reflect.DeepEqual(wrecs, got.stmts[i]) {
					t.Errorf("statement %q: cursor answers differ under churn (%d vs %d rows)",
						stmtQueries[i], len(got.stmts[i]), len(wrecs))
				}
			}
			if !reflect.DeepEqual(want.knn, got.knn) {
				t.Error("kNN answers differ under churn")
			}
			if !reflect.DeepEqual(want.photoz, got.photoz) {
				t.Errorf("photo-z answers differ under churn: %v vs %v", got.photoz, want.photoz)
			}
			if want.sampled != got.sampled {
				t.Errorf("grid sample returned %d rows under churn, want %d", got.sampled, want.sampled)
			}
			if gotBatch := collectBatchAnswers(t, re); !reflect.DeepEqual(wantBatch, gotBatch) {
				t.Error("batched kNN/photo-z answers differ under churn")
			}
			if ev := re.Engine().Store().Stats().Evictions; ev == 0 {
				t.Errorf("pool of %d pages over a %d-page database evicted nothing; the matrix is not exercising pressure", pool.pages, totalPages)
			}

			// Concurrent round: the same paths racing against each other
			// through the starved pool must still agree with the
			// reference (run with -race). Everything in the goroutines
			// reports through errs — t.Fatal may only run on the test
			// goroutine.
			var wg sync.WaitGroup
			errs := make(chan string, 3)
			wg.Add(3)
			go func() {
				defer wg.Done()
				// Same clause collectAnswers queries with.
				const where = "g - r > 0.2 AND r < 20"
				for i := 0; i < 3; i++ {
					for plan, wrecs := range want.poly {
						recs, _, err := re.QueryWhere(where, plan)
						if err != nil {
							errs <- err.Error()
							return
						}
						sortRecords(recs)
						if !reflect.DeepEqual(wrecs, recs) {
							errs <- fmt.Sprintf("concurrent plan %v diverged", plan)
							return
						}
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					g, err := batchAnswersOf(re)
					if err != nil {
						errs <- err.Error()
						return
					}
					if !reflect.DeepEqual(wantBatch, g) {
						errs <- "concurrent batch kNN/photo-z diverged"
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				view := vec.NewBox(vec.Point{14, 14, 14}, vec.Point{24, 24, 24})
				for i := 0; i < 5; i++ {
					recs, _, err := re.SampleRegion(view, 200)
					if err != nil {
						errs <- err.Error()
						return
					}
					if len(recs) != want.sampled {
						errs <- fmt.Sprintf("concurrent sample %d rows, want %d", len(recs), want.sampled)
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			for msg := range errs {
				t.Error(msg)
			}
		})
	}
}

// TestEvictionChurnMatrixWithResultCache replays the churn matrix
// with the tier-2 result cache enabled: under every pool size the
// first pass fills the cache through constant eviction churn and the
// second pass serves hits — both must be byte-identical to the
// uncached RAM-sized reference, and the cache must hold no page pins.
func TestEvictionChurnMatrixWithResultCache(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDB(t, dir, 6000)
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var totalPages int64
	for _, pages := range ref.Engine().Store().ManifestFiles() {
		totalPages += int64(pages)
	}
	want := collectAnswers(t, ref)
	wantBatch := collectBatchAnswers(t, ref)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	pools := []struct {
		name  string
		pages int
	}{
		{"pin-floor", 16},
		{"10pct", int(totalPages / 10)},
	}
	for _, pool := range pools {
		t.Run(fmt.Sprintf("pool=%s", pool.name), func(t *testing.T) {
			re, err := OpenExisting(Config{Dir: dir, PoolPages: pool.pages, ResultCacheBytes: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()

			for pass := 0; pass < 2; pass++ {
				got := collectAnswers(t, re)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("pass %d: answers diverge from uncached reference", pass)
				}
				if gotBatch := collectBatchAnswers(t, re); !reflect.DeepEqual(wantBatch, gotBatch) {
					t.Errorf("pass %d: batched answers diverge from uncached reference", pass)
				}
			}
			if c := re.Cache().StatsFor("query"); c.Hits == 0 {
				t.Errorf("second pass served no statement-cache hits: %+v", c)
			}
			if n := re.Engine().Store().PinnedPages(); n != 0 {
				t.Errorf("%d pages pinned after cached replay", n)
			}
		})
	}
}
