package knn

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// batchQueries builds a mixed on-data/off-data query load.
func batchQueries(t *testing.T, s *Searcher, n int, seed int64) []vec.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dom := sky.Domain()
	qs := make([]vec.Point, n)
	for i := range qs {
		if i%2 == 0 {
			var rec table.Record
			if err := s.Tb.Get(table.RowID(rng.Intn(int(s.Tb.NumRows()))), &rec); err != nil {
				t.Fatal(err)
			}
			qs[i] = rec.Point()
		} else {
			qs[i] = dom.Sample(rng.Float64)
		}
	}
	return qs
}

func TestSearchBatchMatchesSerialAllOrderings(t *testing.T) {
	s := fixture(t, 4000)
	qs := batchQueries(t, s, 40, 7)
	const k = 12

	// Serial reference, query by query.
	wantRes := make([][]Neighbor, len(qs))
	wantStats := make([]Stats, len(qs))
	for i, p := range qs {
		r, st, err := s.Search(p, k)
		if err != nil {
			t.Fatal(err)
		}
		wantRes[i], wantStats[i] = r, st
	}

	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 3; round++ {
		// Permute the input each round: results must come back in the
		// (new) input order regardless of the internal locality sort.
		perm := rng.Perm(len(qs))
		pq := make([]vec.Point, len(qs))
		for i, j := range perm {
			pq[i] = qs[j]
		}
		gotRes, gotStats, err := s.SearchBatch(pq, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotRes) != len(pq) || len(gotStats) != len(pq) {
			t.Fatalf("round %d: got %d results, %d stats", round, len(gotRes), len(gotStats))
		}
		for i, j := range perm {
			if !reflect.DeepEqual(gotRes[i], wantRes[j]) {
				t.Fatalf("round %d query %d: batch result differs from serial Search", round, i)
			}
			// The examination trace is deterministic; the hit/miss split
			// depends on cache state, but the pages touched do not.
			if gotStats[i].LeavesExamined != wantStats[j].LeavesExamined ||
				gotStats[i].RowsExamined != wantStats[j].RowsExamined {
				t.Fatalf("round %d query %d: examined %d leaves/%d rows, serial %d/%d",
					round, i, gotStats[i].LeavesExamined, gotStats[i].RowsExamined,
					wantStats[j].LeavesExamined, wantStats[j].RowsExamined)
			}
			gotTouched := gotStats[i].Pages.Hits + gotStats[i].Pages.Misses
			wantTouched := wantStats[j].Pages.Hits + wantStats[j].Pages.Misses
			if gotTouched != wantTouched {
				t.Fatalf("round %d query %d: touched %d pages, serial touched %d",
					round, i, gotTouched, wantTouched)
			}
		}
	}
}

// TestSearchBatchStatsSumToGlobalDelta is the acceptance criterion:
// when the batch is the store's only client, per-query scoped stats
// must sum exactly (±0) to the store-global delta.
func TestSearchBatchStatsSumToGlobalDelta(t *testing.T) {
	s := fixture(t, 8000)
	qs := batchQueries(t, s, 30, 11)
	before := s.Tb.Store().Stats()
	_, stats, err := s.SearchBatch(qs, 10)
	if err != nil {
		t.Fatal(err)
	}
	var sum pagestore.Stats
	for _, st := range stats {
		sum.DiskReads += st.Pages.DiskReads
		sum.DiskWrites += st.Pages.DiskWrites
		sum.Hits += st.Pages.Hits
		sum.Misses += st.Pages.Misses
		sum.Evictions += st.Pages.Evictions
		sum.Allocs += st.Pages.Allocs
	}
	if delta := s.Tb.Store().Stats().Sub(before); sum != delta {
		t.Errorf("per-query stats sum %+v != store delta %+v", sum, delta)
	}
}

// TestConcurrentQueriesSeeOnlyOwnPages is the headline bugfix under
// -race: two queries running concurrently must each report exactly
// the page set a solo run reports — not each other's I/O.
func TestConcurrentQueriesSeeOnlyOwnPages(t *testing.T) {
	s := fixture(t, 20000)
	var recA, recB table.Record
	if err := s.Tb.Get(100, &recA); err != nil {
		t.Fatal(err)
	}
	if err := s.Tb.Get(table.RowID(s.Tb.NumRows()-100), &recB); err != nil {
		t.Fatal(err)
	}
	pa, pb := recA.Point(), recB.Point()
	const k = 15

	touched := func(st Stats) int64 { return st.Pages.Hits + st.Pages.Misses }

	// Solo references (cache-warm, so the touched set is stable).
	_, refA, err := s.Search(pa, k)
	if err != nil {
		t.Fatal(err)
	}
	_, refB, err := s.Search(pb, k)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		var stA, stB Stats
		var errA, errB error
		wg.Add(2)
		go func() { defer wg.Done(); _, stA, errA = s.Search(pa, k) }()
		go func() { defer wg.Done(); _, stB, errB = s.Search(pb, k) }()
		wg.Wait()
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if touched(stA) != touched(refA) {
			t.Fatalf("round %d: concurrent query A touched %d pages, solo %d — cross-query leakage",
				round, touched(stA), touched(refA))
		}
		if touched(stB) != touched(refB) {
			t.Fatalf("round %d: concurrent query B touched %d pages, solo %d — cross-query leakage",
				round, touched(stB), touched(refB))
		}
	}
}

func TestSearchBatchEmptyAndInvalid(t *testing.T) {
	s := fixture(t, 200)
	res, stats, err := s.SearchBatch(nil, 5)
	if err != nil || res != nil || stats != nil {
		t.Errorf("empty batch: res=%v stats=%v err=%v", res, stats, err)
	}
	if _, _, err := s.SearchBatch([]vec.Point{{1, 2}}, 5); err == nil {
		t.Error("dim mismatch should fail before any search")
	}
	if _, _, err := s.SearchBatch([]vec.Point{{1, 2, 3, 4, 5}}, 0); err == nil {
		t.Error("k=0 should fail")
	}
}
