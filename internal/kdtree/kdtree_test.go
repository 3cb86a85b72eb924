package kdtree

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pagedio"
	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// buildFixture generates a catalog and builds a kd-tree over it.
func buildFixture(t *testing.T, n int, levels int) (*Tree, *table.Table) {
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
	tree, clustered, err := Build(tb, "mag.kd", BuildParams{Levels: levels, Domain: sky.Domain()})
	if err != nil {
		t.Fatal(err)
	}
	return tree, clustered
}

func TestChooseLevels(t *testing.T) {
	cases := []struct {
		n    uint64
		want int
	}{
		{1, 0},
		{4, 1},
		{16, 2},
		{1 << 20, 10},
		{270_000_000, 14}, // the paper: 2^14 leaves for 270M rows
	}
	for _, c := range cases {
		if got := ChooseLevels(c.n); got != c.want {
			t.Errorf("ChooseLevels(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBuildStructure(t *testing.T) {
	tree, tb := buildFixture(t, 4000, 0)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.Leaves != 1<<tree.Levels {
		t.Errorf("leaves = %d, want %d", st.Leaves, 1<<tree.Levels)
	}
	// Balanced: leaf sizes differ by at most a factor ~2 around N/leaves.
	mean := float64(tb.NumRows()) / float64(st.Leaves)
	if float64(st.MinLeafRows) < mean/2 || float64(st.MaxLeafRows) > mean*2 {
		t.Errorf("leaf sizes [%d, %d] too skewed around mean %.1f", st.MinLeafRows, st.MaxLeafRows, mean)
	}
	// √N rule: with 4000 rows, ChooseLevels gives 6 → 64 leaves ≈ 63.2.
	if tree.Levels != 6 {
		t.Errorf("levels = %d, want 6", tree.Levels)
	}
}

func TestLeafClusteringMatchesTree(t *testing.T) {
	tree, tb := buildFixture(t, 2000, 0)
	// Every row's LeafID must match the leaf whose row range contains it.
	err := tb.Scan(func(id table.RowID, r *table.Record) bool {
		leaf := int(r.LeafID)
		lo, hi := tree.LeafRows(leaf)
		if id < lo || id >= hi {
			t.Fatalf("row %d tagged leaf %d but leaf rows are [%d,%d)", id, leaf, lo, hi)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLeafContainingAgreesWithStorage(t *testing.T) {
	tree, tb := buildFixture(t, 2000, 0)
	err := tb.Scan(func(id table.RowID, r *table.Record) bool {
		leaf := tree.LeafContaining(r.Point())
		if leaf != int(r.LeafID) {
			t.Fatalf("row %d: geometric leaf %d, stored leaf %d", id, leaf, r.LeafID)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLeafCellsTileDomain(t *testing.T) {
	tree, _ := buildFixture(t, 1000, 0)
	rng := rand.New(rand.NewSource(5))
	dom := sky.Domain()
	for i := 0; i < 500; i++ {
		p := dom.Sample(rng.Float64)
		leaf := tree.LeafContaining(p)
		if !tree.LeafBox(leaf).Contains(p) {
			t.Fatalf("point %v routed to leaf %d whose cell %v misses it", p, leaf, tree.LeafBox(leaf))
		}
	}
}

func TestQueryMatchesFullScan(t *testing.T) {
	tree, tb := buildFixture(t, 5000, 0)
	rng := rand.New(rand.NewSource(7))
	dom := sky.Domain()

	for iter := 0; iter < 20; iter++ {
		// Random box queries of varying size plus random oblique planes.
		c := dom.Sample(rng.Float64)
		half := 0.3 + 3*rng.Float64()
		min, max := make(vec.Point, 5), make(vec.Point, 5)
		for d := 0; d < 5; d++ {
			min[d], max[d] = c[d]-half, c[d]+half
		}
		q := vec.BoxPolyhedron(vec.NewBox(min, max))
		if iter%3 == 0 {
			a := make(vec.Point, 5)
			for d := range a {
				a[d] = rng.NormFloat64()
			}
			q.Planes = append(q.Planes, vec.NewHalfspace(a, a.Dot(c)))
		}

		got, _, err := tree.QueryPolyhedron(tb, q)
		if err != nil {
			t.Fatal(err)
		}
		var want []table.RowID
		tb.Scan(func(id table.RowID, r *table.Record) bool {
			if q.Contains(r.Point()) {
				want = append(want, id)
			}
			return true
		})
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("iter %d: index %d rows, scan %d rows", iter, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d: row mismatch at %d", iter, i)
			}
		}
	}
}

func TestWholeDomainQueryIsBulk(t *testing.T) {
	tree, tb := buildFixture(t, 2000, 0)
	// The whole domain box contains every tight bound: the root is
	// classified Inside and no leaf needs filtering.
	got, stats, err := tree.QueryPolyhedron(tb, vec.BoxPolyhedron(sky.Domain()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != int(tb.NumRows()) {
		t.Errorf("whole-domain query returned %d of %d", len(got), tb.NumRows())
	}
	if stats.LeavesPartial != 0 {
		t.Errorf("whole-domain query filtered %d leaves", stats.LeavesPartial)
	}
	if stats.NodesVisited != 1 {
		t.Errorf("expected 1 node visit (root Inside), got %d", stats.NodesVisited)
	}
}

func TestEmptyRegionQueryTouchesNothing(t *testing.T) {
	tree, tb := buildFixture(t, 2000, 0)
	tb.Store().DropCache()
	q := vec.BoxPolyhedron(vec.NewBox(
		vec.Point{10, 10, 10, 10, 10}, vec.Point{10.5, 10.5, 10.5, 10.5, 10.5}))
	got, stats, err := tree.QueryPolyhedron(tb, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty region returned %d rows", len(got))
	}
	if stats.Pages.DiskReads != 0 {
		t.Errorf("empty region read %d pages", stats.Pages.DiskReads)
	}
}

func TestSelectiveQueryIOSmall(t *testing.T) {
	tree, tb := buildFixture(t, 50000, 0)
	tb.Store().DropCache()
	// A tight box around a populated spot.
	var first table.Record
	tb.Get(100, &first)
	c := first.Point()
	min, max := make(vec.Point, 5), make(vec.Point, 5)
	for d := 0; d < 5; d++ {
		min[d], max[d] = c[d]-0.25, c[d]+0.25
	}
	got, stats, err := tree.QueryPolyhedron(tb, vec.BoxPolyhedron(vec.NewBox(min, max)))
	if err != nil {
		t.Fatal(err)
	}
	tablePages := int64(tb.NumPages())
	if stats.Pages.DiskReads > tablePages/4 {
		t.Errorf("selective query read %d of %d pages (returned %d rows)",
			stats.Pages.DiskReads, tablePages, len(got))
	}
}

func TestClassifyLeaves(t *testing.T) {
	tree, _ := buildFixture(t, 2000, 0)
	inside, outside, partial := tree.ClassifyLeaves(vec.BoxPolyhedron(sky.Domain()))
	if inside != tree.NumLeaves() || outside != 0 || partial != 0 {
		t.Errorf("whole domain: %d/%d/%d of %d leaves", inside, outside, partial, tree.NumLeaves())
	}
	// A small central box: mostly outside, a few partial.
	q := vec.BoxPolyhedron(vec.NewBox(
		vec.Point{18, 18, 17, 17, 16}, vec.Point{19, 19, 18, 18, 17}))
	i2, o2, p2 := tree.ClassifyLeaves(q)
	if i2+o2+p2 != tree.NumLeaves() {
		t.Errorf("classification does not partition the leaves: %d+%d+%d != %d", i2, o2, p2, tree.NumLeaves())
	}
	if o2 == 0 {
		t.Error("small box should leave most leaves outside")
	}
}

func TestExplicitLevels(t *testing.T) {
	tree, _ := buildFixture(t, 1000, 4)
	if tree.Levels != 4 || tree.NumLeaves() != 16 {
		t.Errorf("levels = %d, leaves = %d", tree.Levels, tree.NumLeaves())
	}
}

func TestLevelsCappedByPoints(t *testing.T) {
	s, _ := pagestore.Open(t.TempDir(), 64)
	defer s.Close()
	tb, _ := table.Create(s, "t")
	sky.GenerateTable(tb, sky.DefaultParams(3, 1))
	tree, _, err := Build(tb, "t.kd", BuildParams{Levels: 10, Domain: sky.Domain()})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumLeaves() > 3 {
		t.Errorf("3 points produced %d leaves", tree.NumLeaves())
	}
	if err := tree.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuildErrors(t *testing.T) {
	s, _ := pagestore.Open(t.TempDir(), 64)
	defer s.Close()
	empty, _ := table.Create(s, "e")
	if _, _, err := Build(empty, "e.kd", BuildParams{Domain: sky.Domain()}); err == nil {
		t.Error("empty table should fail")
	}
	tb, _ := table.Create(s, "t")
	sky.GenerateTable(tb, sky.DefaultParams(10, 1))
	if _, _, err := Build(tb, "t.kd", BuildParams{Domain: vec.UnitBox(2)}); err == nil {
		t.Error("domain dim mismatch should fail")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tree, tb := buildFixture(t, 2000, 0)
	if err := tree.SavePaged(tb.Store(), "mag.tree"); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPaged(tb.Store(), "mag.tree")
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	if loaded.Levels != tree.Levels || loaded.NumRows != tree.NumRows || len(loaded.Nodes) != len(tree.Nodes) {
		t.Error("loaded tree differs structurally")
	}
	// Queries through the loaded tree must match.
	q := vec.NewPolyhedron(vec.NewHalfspace(vec.Point{1, -1, 0, 0, 0}, 1.1))
	a, _, err := tree.QueryPolyhedron(tb, q)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := loaded.QueryPolyhedron(tb, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Errorf("loaded tree returned %d rows, original %d", len(b), len(a))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	s, err := pagestore.Open(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, err := pagedio.Create(s, "garbage.tree")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("not a tree")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPaged(s, "garbage.tree"); err == nil {
		t.Error("garbage should fail to load")
	}
}

func TestSelectNth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		span := make([]int, n)
		for i := range span {
			span[i] = i
		}
		k := rng.Intn(n)
		selectNth(span, k, func(a, b int) bool { return vals[a] < vals[b] })
		kth := vals[span[k]]
		for i := 0; i < k; i++ {
			if vals[span[i]] > kth {
				t.Fatalf("element %d before position %d exceeds kth", i, k)
			}
		}
		for i := k; i < n; i++ {
			if vals[span[i]] < kth {
				t.Fatalf("element %d after position %d below kth", i, k)
			}
		}
	}
}

func TestBuildFromPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := make([]vec.Point, 500)
	for i := range pts {
		pts[i] = vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	tree, perm, err := BuildFromPoints(pts, vec.UnitBox(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(perm) != len(pts) {
		t.Fatalf("perm length %d", len(perm))
	}
	// Each leaf's row range must hold exactly the points geometrically
	// routed to it (continuous data, no duplicate coordinates).
	for leaf := 0; leaf < tree.NumLeaves(); leaf++ {
		lo, hi := tree.LeafRows(leaf)
		for r := lo; r < hi; r++ {
			p := pts[perm[r]]
			if got := tree.LeafContaining(p); got != leaf {
				t.Fatalf("point %v stored in leaf %d, routed to %d", p, leaf, got)
			}
		}
	}
}

func TestElongationReflectsClustering(t *testing.T) {
	// Figure 15: on clustered data the leaf bounds are elongated. A
	// uniform cube yields near-cubic leaves; the sky catalog should
	// yield clearly higher mean elongation.
	rng := rand.New(rand.NewSource(17))
	uni := make([]vec.Point, 4000)
	for i := range uni {
		uni[i] = vec.Point{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	uniTree, _, err := BuildFromPoints(uni, vec.UnitBox(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	skyTree, _ := buildFixture(t, 4000, 0)
	u := uniTree.Stats().MeanElongation
	s := skyTree.Stats().MeanElongation
	if s < u {
		t.Errorf("sky elongation %.2f should exceed uniform %.2f", s, u)
	}
}

// TestBuildIsInputOrderFree: what a build writes depends on the set of
// records, not on their order. Over the same rows in two orders — with
// a tie group the root's median falls inside, and a duplicated ObjID
// and a duplicated row among the ties — the trees are equal and the
// clustered tables byte-identical, so a rebuild over a clustered
// table's own rows reproduces a fresh build.
func TestBuildIsInputOrderFree(t *testing.T) {
	dir := t.TempDir()
	s, err := pagestore.Open(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	recs := make([]table.Record, 2000)
	for i := range recs {
		r := &recs[i]
		r.ObjID = int64(i)
		for d := range r.Mags {
			r.Mags[d] = float32(15 + 5*rng.Float64())
		}
		// r is the widest axis, so the root splits on it, and a fifth of
		// the rows share r = 20 exactly: the root's median lies among
		// them, and which of them go left is decided by the tie-break.
		r.Mags[2] = float32(10 + 20*rng.Float64())
		if i%5 == 0 {
			// The ties hold the extremes of u, so which of them go left
			// shows in both children's bounds.
			r.Mags[0], r.Mags[2] = float32(12+16*rng.Float64()), 20
		}
		r.Ra, r.Dec = float32(rng.Float64()*360), float32(rng.Float64()*180-90)
	}
	recs[5].ObjID = recs[0].ObjID // one ObjID twice among the ties
	recs[15] = recs[10]           // one row twice
	shuffled := append([]table.Record(nil), recs...)
	rand.New(rand.NewSource(8)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	p := BuildParams{Domain: sky.Domain()}
	treeA, tbA, err := BuildRecords(s, recs, "a.kd", p)
	if err != nil {
		t.Fatal(err)
	}
	treeB, tbB, err := BuildRecords(s, shuffled, "b.kd", p)
	if err != nil {
		t.Fatal(err)
	}
	if root := treeA.Root(); root.Axis != 2 || root.Cut != 20 {
		t.Fatalf("root splits axis %d at %v; the case wants the r = 20 tie group at the median", root.Axis, root.Cut)
	}
	if !reflect.DeepEqual(treeA, treeB) {
		t.Error("the trees built over two orders of one row set differ")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dir, tbA.Name()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, tbB.Name()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("the clustered tables differ (%d and %d bytes)", len(a), len(b))
	}
}
