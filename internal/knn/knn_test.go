package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kdtree"
	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

func fixture(t *testing.T, n int) *Searcher {
	t.Helper()
	s, err := pagestore.Open(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	tb, err := table.Create(s, "mag.tbl")
	if err != nil {
		t.Fatal(err)
	}
	if err := sky.GenerateTable(tb, sky.DefaultParams(n, 42)); err != nil {
		t.Fatal(err)
	}
	tree, clustered, err := kdtree.Build(tb, "mag.kd", kdtree.BuildParams{Domain: sky.Domain()})
	if err != nil {
		t.Fatal(err)
	}
	return NewSearcher(tree, clustered)
}

// sameNeighbors compares two result lists by distance sequence
// (row-level ties may legitimately reorder).
func sameNeighbors(t *testing.T, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d neighbours, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist2-want[i].Dist2) > 1e-9 {
			t.Fatalf("neighbour %d: dist2 %v vs %v", i, got[i].Dist2, want[i].Dist2)
		}
	}
}

func TestSearchMatchesBruteForceOnDataPoints(t *testing.T) {
	s := fixture(t, 4000)
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 25; iter++ {
		var rec table.Record
		row := table.RowID(rng.Intn(int(s.Tb.NumRows())))
		s.Tb.Get(row, &rec)
		p := rec.Point()
		k := 1 + rng.Intn(20)
		got, _, err := s.Search(p, k)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := BruteForce(s.Tb, p, k)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, got, want)
		// The query point itself must be neighbour 0 at distance 0.
		if got[0].Dist2 != 0 {
			t.Fatalf("self distance = %v", got[0].Dist2)
		}
	}
}

func TestSearchMatchesBruteForceOffData(t *testing.T) {
	s := fixture(t, 4000)
	rng := rand.New(rand.NewSource(2))
	dom := sky.Domain()
	for iter := 0; iter < 25; iter++ {
		p := dom.Sample(rng.Float64)
		k := 1 + rng.Intn(15)
		got, _, err := s.Search(p, k)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := BruteForce(s.Tb, p, k)
		if err != nil {
			t.Fatal(err)
		}
		sameNeighbors(t, got, want)
	}
}

func TestSearchOutsideDomain(t *testing.T) {
	// Query points outside the root cell must still return exact
	// results (seeding clamps into the domain).
	s := fixture(t, 2000)
	p := vec.Point{5, 5, 5, 5, 5} // below the domain floor of 10
	got, _, err := s.Search(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := BruteForce(s.Tb, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, got, want)
}

func TestResultsAscending(t *testing.T) {
	s := fixture(t, 3000)
	p := vec.Point{20, 19, 18, 18, 17}
	got, _, err := s.Search(p, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist2 < got[i-1].Dist2 {
			t.Fatalf("results not ascending at %d", i)
		}
	}
}

func TestKLargerThanTable(t *testing.T) {
	s := fixture(t, 100)
	p := vec.Point{20, 19, 18, 18, 17}
	got, _, err := s.Search(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Errorf("k > N returned %d, want all 100", len(got))
	}
}

func TestInvalidArgs(t *testing.T) {
	s := fixture(t, 100)
	if _, _, err := s.Search(vec.Point{1, 2, 3, 4, 5}, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, _, err := s.Search(vec.Point{1, 2}, 3); err == nil {
		t.Error("dim mismatch should fail")
	}
	if _, _, err := BruteForce(s.Tb, vec.Point{1, 2, 3, 4, 5}, 0); err == nil {
		t.Error("brute force k=0 should fail")
	}
	if _, _, err := BruteForce(s.Tb, vec.Point{1, 2, 3}, 3); err == nil {
		t.Error("brute force dim mismatch should fail, not panic or truncate")
	}
}

func TestLeavesExaminedMuchSmallerThanTotal(t *testing.T) {
	// §3.3's point: the region growth touches a handful of leaves.
	s := fixture(t, 50000)
	rng := rand.New(rand.NewSource(3))
	var totalLeaves, examined float64
	for iter := 0; iter < 10; iter++ {
		var rec table.Record
		s.Tb.Get(table.RowID(rng.Intn(int(s.Tb.NumRows()))), &rec)
		_, stats, err := s.Search(rec.Point(), 10)
		if err != nil {
			t.Fatal(err)
		}
		totalLeaves += float64(s.Tree.NumLeaves())
		examined += float64(stats.LeavesExamined)
	}
	if examined/totalLeaves > 0.25 {
		t.Errorf("examined %.0f%% of leaves on average; expected a small fraction",
			100*examined/totalLeaves)
	}
}

func TestSearchIOSmallerThanScan(t *testing.T) {
	s := fixture(t, 50000)
	var rec table.Record
	s.Tb.Get(1234, &rec)
	s.Tb.Store().DropCache()
	_, stats, err := s.Search(rec.Point(), 10)
	if err != nil {
		t.Fatal(err)
	}
	tablePages := int64(s.Tb.NumPages())
	if stats.Pages.DiskReads > tablePages/4 {
		t.Errorf("kNN read %d of %d pages", stats.Pages.DiskReads, tablePages)
	}
}

func TestDuplicatePoints(t *testing.T) {
	// Many identical points must not break the search: build a tiny
	// table with heavy duplication.
	s, err := pagestore.Open(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, _ := table.Create(s, "dup.tbl")
	recs := make([]table.Record, 64)
	for i := range recs {
		recs[i].ObjID = int64(i)
		v := float32(15 + i%4) // only 4 distinct positions
		recs[i].Mags = [5]float32{v, v, v, v, v}
	}
	if err := tb.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	tree, clustered, err := kdtree.Build(tb, "dup.kd", kdtree.BuildParams{Domain: sky.Domain()})
	if err != nil {
		t.Fatal(err)
	}
	searcher := NewSearcher(tree, clustered)
	got, _, err := searcher.Search(vec.Point{15, 15, 15, 15, 15}, 20)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := BruteForce(clustered, vec.Point{15, 15, 15, 15, 15}, 20)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, got, want)
}

func TestBruteForceAscendingAndExact(t *testing.T) {
	s := fixture(t, 500)
	p := vec.Point{20, 19, 18, 18, 17}
	got, stats, err := BruteForce(s.Tb, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsExamined != int64(s.Tb.NumRows()) {
		t.Errorf("brute force examined %d rows", stats.RowsExamined)
	}
	// Exhaustive check against sorting all distances.
	var all []float64
	s.Tb.Scan(func(id table.RowID, r *table.Record) bool {
		all = append(all, p.Dist2(r.Point()))
		return true
	})
	for i := 1; i < len(got); i++ {
		if got[i].Dist2 < got[i-1].Dist2 {
			t.Fatal("brute force not ascending")
		}
	}
	// got[k-1] must be the 7th smallest overall.
	smaller := 0
	for _, d := range all {
		if d < got[len(got)-1].Dist2 {
			smaller++
		}
	}
	if smaller > 6 {
		t.Errorf("%d points closer than the reported 7th neighbour", smaller)
	}
}

// TestSearchCoversUnindexedTail: rows appended to the clustered table
// after the tree was built belong to no leaf, and Search still returns
// the k nearest over the whole table — checked against a sort of every
// row's distance, not against BruteForce's heap. Through a view with no
// zone maps no tail page can be pruned, and the answer is the same.
func TestSearchCoversUnindexedTail(t *testing.T) {
	s := fixture(t, 3000)
	fresh, err := sky.Generate(sky.DefaultParams(700, 43))
	if err != nil {
		t.Fatal(err)
	}
	// Two runs; the first ends mid-page, so does the indexed prefix.
	if err := s.Tb.AppendAll(fresh[:333]); err != nil {
		t.Fatal(err)
	}
	if err := s.Tb.AppendAll(fresh[333:]); err != nil {
		t.Fatal(err)
	}
	blind := NewSearcher(s.Tree, s.Tb.WithoutZones())
	const k = 9
	for i := 0; i < len(fresh); i += 7 {
		p := fresh[i].Point()
		var all []float64
		s.Tb.Scan(func(id table.RowID, r *table.Record) bool {
			all = append(all, dist2Mags(p, r))
			return true
		})
		sort.Float64s(all)
		for name, sr := range map[string]*Searcher{"zones": s, "no zones": blind} {
			got, stats, err := sr.Search(p, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != k || got[0].Dist2 != 0 {
				t.Fatalf("%s, probe %d: %d neighbours, nearest at %v — the probe is a tail row", name, i, len(got), got[0].Dist2)
			}
			for j := range got {
				if got[j].Dist2 != all[j] {
					t.Fatalf("%s, probe %d: neighbour %d at %v, the %d-th smallest distance is %v", name, i, j, got[j].Dist2, j, all[j])
				}
			}
			if name == "no zones" && stats.RowsExamined < int64(len(fresh)) {
				t.Fatalf("probe %d: examined %d rows with no zones to prune by, the tail holds %d", i, stats.RowsExamined, len(fresh))
			}
		}
	}
}
