package knn

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
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

// duplicateFixture is a tiny table with heavy duplication: 64 rows on
// only 4 distinct positions.
func duplicateFixture(t *testing.T) *Searcher {
	t.Helper()
	s, err := pagestore.Open(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
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
	return NewSearcher(tree, clustered)
}

func TestDuplicatePoints(t *testing.T) {
	// Many identical points must not break the search.
	searcher := duplicateFixture(t)
	clustered := searcher.Tb
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
	s, fresh := tailFixture(t)
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

// tailFixture is a 3000-row searcher whose table then takes 700 rows
// the tree does not cover, appended as two runs; the first ends
// mid-page, so does the indexed prefix.
func tailFixture(t *testing.T) (*Searcher, []table.Record) {
	t.Helper()
	s := fixture(t, 3000)
	fresh, err := sky.Generate(sky.DefaultParams(700, 43))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Tb.AppendAll(fresh[:333]); err != nil {
		t.Fatal(err)
	}
	if err := s.Tb.AppendAll(fresh[333:]); err != nil {
		t.Fatal(err)
	}
	return s, fresh
}

// TestSearchTieOrderIdentity: Search returns exactly the
// neighbours — Row, Dist2, Rec and order, ties included — of the search
// as it ran when every range was read as full records
// (leafScanReference), and examine exactly the rows of the pages whose
// zone lies within the current k-th distance. On the duplicate table
// nearly every distance ties; on the tail table the region grows
// through leaves and then the two-run tail, with zones and without.
func TestSearchTieOrderIdentity(t *testing.T) {
	dup := duplicateFixture(t)
	tail, fresh := tailFixture(t)
	cases := []struct {
		name   string
		s      *Searcher
		probes []vec.Point
	}{
		{"duplicates", dup, []vec.Point{
			{15, 15, 15, 15, 15}, {16, 16, 16, 16, 16}, {18, 18, 18, 18, 18},
			{15.5, 15.5, 15.5, 15.5, 15.5}, {5, 5, 5, 5, 5}, {16.5, 16, 17, 16.5, 16},
		}},
		{"tail", tail, nil},
		{"tail, no zones", NewSearcher(tail.Tree, tail.Tb.WithoutZones()), nil},
	}
	var tailProbes []vec.Point
	for i := 0; i < len(fresh); i += 61 {
		tailProbes = append(tailProbes, fresh[i].Point())
	}
	tailProbes = append(tailProbes, probes(t, tail, 8, 5)...)
	cases[1].probes, cases[2].probes = tailProbes, tailProbes

	ks := []int{64}
	for k := 1; k <= 12; k++ {
		ks = append(ks, k)
	}
	for _, c := range cases {
		for _, k := range ks {
			for _, p := range c.probes {
				want, rows := leafScanReference(t, c.s, p, k)
				got, st, err := c.s.Search(p, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, k=%d, probe %v: Search %v, reference %v", c.name, k, p, rowsOf(got), rowsOf(want))
				}
				if st.RowsExamined != rows {
					t.Fatalf("%s, k=%d, probe %v: examined %d rows, the reference's pages hold %d", c.name, k, p, st.RowsExamined, rows)
				}
			}
		}
	}
}

func rowsOf(nbs []Neighbor) []table.RowID {
	out := make([]table.RowID, len(nbs))
	for i := range nbs {
		out[i] = nbs[i].Row
	}
	return out
}

// refResults and refFrontier are the reference's result and index
// lists, kept by container/heap.
type refResults []Neighbor

func (h refResults) Len() int           { return len(h) }
func (h refResults) Less(i, j int) bool { return h[i].Dist2 > h[j].Dist2 }
func (h refResults) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refResults) Push(x any)        { *h = append(*h, x.(Neighbor)) }
func (h *refResults) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

type refFrontier []frontierEntry

func (h refFrontier) Len() int           { return len(h) }
func (h refFrontier) Less(i, j int) bool { return h[i].dist2 < h[j].dist2 }
func (h refFrontier) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refFrontier) Push(x any)        { *h = append(*h, x.(frontierEntry)) }
func (h *refFrontier) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// leafScanReference is the region-growing search over container/heap
// lists with every range — each leaf, then the unindexed tail — read a
// page at a time as full records (ScanRange) ranked by dist2Mags. A page
// is read unless the heap is full and the page's zone lies strictly
// farther than its root; the rows of the pages read are returned beside
// the neighbours.
func leafScanReference(t *testing.T, s *Searcher, p vec.Point, k int) ([]Neighbor, int64) {
	t.Helper()
	var result refResults
	var frontier refFrontier
	var examined int64
	m2 := func() float64 {
		if len(result) < k {
			return math.Inf(1)
		}
		return result[0].Dist2
	}
	scan := func(lo, hi table.RowID) {
		hi = min(hi, table.RowID(s.Tb.NumRows()))
		for lo < hi {
			pg := uint64(lo) / table.RecordsPerPage
			end := min(hi, table.RowID((pg+1)*table.RecordsPerPage))
			if zm := s.Tb.ZoneMaps(); zm != nil {
				if z, ok := zm.Page(int(pg)); ok && (vec.Box{Min: z.Min[:], Max: z.Max[:]}).Dist2(p) > m2() {
					lo = end
					continue
				}
			}
			examined += int64(end - lo)
			err := s.Tb.ScanRange(lo, end, func(id table.RowID, r *table.Record) bool {
				d2 := dist2Mags(p, r)
				if len(result) < k {
					heap.Push(&result, Neighbor{Row: id, Dist2: d2, Rec: *r})
				} else if d2 < result[0].Dist2 {
					result[0] = Neighbor{Row: id, Dist2: d2, Rec: *r}
					heap.Fix(&result, 0)
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			lo = end
		}
	}

	seed := s.Tree.LeafContaining(s.Tree.Root().Cell.ClosestPoint(p))
	visited := map[int]bool{seed: true}
	heap.Push(&frontier, frontierEntry{leaf: seed, dist2: s.Tree.LeafBox(seed).Dist2(p)})
	root := s.Tree.Root().Cell
	for frontier.Len() > 0 {
		e := heap.Pop(&frontier).(frontierEntry)
		if e.dist2 > m2() {
			break
		}
		scan(s.Tree.LeafRows(e.leaf))
		// Grow across every face nearer than m: each unvisited leaf
		// whose cell meets the thin slab beyond the face within m.
		cell := s.Tree.LeafBox(e.leaf)
		for axis := 0; axis < cell.Dim(); axis++ {
			for side := 0; side < 2; side++ {
				b := cell.ClosestPoint(p)
				faceCoord := cell.Max[axis]
				if side == 0 {
					faceCoord = cell.Min[axis]
				}
				if side == 0 && faceCoord <= root.Min[axis] || side == 1 && faceCoord >= root.Max[axis] {
					continue
				}
				b[axis] = faceCoord
				if p.Dist2(b) > m2() {
					continue
				}
				slab := cell.Clone()
				eps := faceEps(root, axis)
				if side == 0 {
					slab.Min[axis], slab.Max[axis] = faceCoord-eps, faceCoord
				} else {
					slab.Min[axis], slab.Max[axis] = faceCoord, faceCoord+eps
				}
				stack := []int32{0}
				for len(stack) > 0 {
					n := &s.Tree.Nodes[stack[len(stack)-1]]
					stack = stack[:len(stack)-1]
					if !n.Cell.Intersects(slab) || n.Cell.Dist2(p) > m2() {
						continue
					}
					if !n.IsLeaf() {
						stack = append(stack, n.Left, n.Right)
					} else if leaf := int(n.Leaf); !visited[leaf] {
						visited[leaf] = true
						heap.Push(&frontier, frontierEntry{leaf: leaf, dist2: n.Cell.Dist2(p)})
					}
				}
			}
		}
	}
	scan(table.RowID(s.Tree.NumRows), table.RowID(s.Tb.NumRows()))

	out := make([]Neighbor, len(result))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&result).(Neighbor)
	}
	return out, examined
}

// probes builds a mixed on-data/off-data query load.
func probes(t *testing.T, s *Searcher, n int, seed int64) []vec.Point {
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
