package viz

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// testProducer is a deterministic synchronous-looking producer used
// for pipeline mechanics tests.
type testProducer struct {
	*producerCore
	mu    sync.Mutex
	calls []Camera
}

func newTestProducer(n int) *testProducer {
	tp := &testProducer{}
	core := newAsyncProducer(NewCamera(vec.UnitBox(3), n), func(c Camera) *GeometrySet {
		tp.mu.Lock()
		tp.calls = append(tp.calls, c)
		tp.mu.Unlock()
		g := &GeometrySet{}
		for i := 0; i < c.N; i++ {
			g.Points = append(g.Points, Point{Pos: P3{0.5, 0.5, 0.5}})
		}
		return g
	})
	tp.producerCore = core
	core.setSelf(tp)
	return tp
}

func TestAppLifecycleAndFrame(t *testing.T) {
	app := NewApp()
	tp := newTestProducer(7)
	app.AddPipeline(tp)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	app.SetCamera(NewCamera(vec.UnitBox(3), 7))
	g, err := app.WaitFrame(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Points) != 7 {
		t.Errorf("frame has %d points, want 7", len(g.Points))
	}
	st := app.Stats()
	if st.Productions < 1 {
		t.Errorf("no productions observed: %+v", st)
	}
}

// TestWaitFrameAfterProductionFinished: a production that finishes
// before WaitFrame starts — a fast producer, a geometry-cache hit —
// still settles the frame, and a second camera waits for its own
// geometry rather than settling on the first camera's.
func TestWaitFrameAfterProductionFinished(t *testing.T) {
	app := NewApp()
	tp := newTestProducer(7)
	app.AddPipeline(tp)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	for _, n := range []int{7, 9} {
		app.SetCamera(NewCamera(vec.UnitBox(3), n))
		time.Sleep(50 * time.Millisecond)
		g, err := app.WaitFrame(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Points) != n {
			t.Errorf("frame has %d points, want %d", len(g.Points), n)
		}
	}
}

func TestDoubleStartFails(t *testing.T) {
	app := NewApp()
	app.AddPipeline(newTestProducer(1))
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	if err := app.Start(); err == nil {
		t.Error("second Start should fail")
	}
}

func TestCameraCoalescing(t *testing.T) {
	// A burst of camera changes must not force one compute per event:
	// stale cameras are dropped. (Timing-dependent upper bounds would
	// be flaky; assert the final state is correct and at least one
	// compute happened.)
	app := NewApp()
	tp := newTestProducer(3)
	app.AddPipeline(tp)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	var last Camera
	for i := 0; i < 50; i++ {
		last = NewCamera(vec.UnitBox(3), 3+i%5)
		app.SetCamera(last)
	}
	if _, err := app.WaitFrame(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	tp.mu.Lock()
	calls := len(tp.calls)
	lastCall := tp.calls[len(tp.calls)-1]
	tp.mu.Unlock()
	if calls == 0 {
		t.Fatal("no computes")
	}
	// Worker must eventually process the newest camera.
	deadline := time.Now().Add(2 * time.Second)
	for lastCall.N != last.N && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		app.Frame()
		tp.mu.Lock()
		lastCall = tp.calls[len(tp.calls)-1]
		tp.mu.Unlock()
	}
	if lastCall.N != last.N {
		t.Errorf("newest camera never processed: got N=%d want N=%d", lastCall.N, last.N)
	}
}

func TestPipesRunInOrder(t *testing.T) {
	app := NewApp()
	tp := newTestProducer(100)
	app.AddPipeline(tp, &DecimatePipe{Max: 10})
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	app.SetCamera(NewCamera(vec.UnitBox(3), 100))
	g, err := app.WaitFrame(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Points) != 10 {
		t.Errorf("decimated frame has %d points", len(g.Points))
	}
}

func TestDecimatePipe(t *testing.T) {
	d := &DecimatePipe{Max: 3}
	in := &GeometrySet{}
	for i := 0; i < 10; i++ {
		in.Points = append(in.Points, Point{Pos: P3{float64(i), 0, 0}})
	}
	out := d.Process(in)
	if len(out.Points) != 3 {
		t.Errorf("decimated to %d", len(out.Points))
	}
	if got := d.Process(nil); got != nil {
		t.Error("nil should pass through")
	}
	small := &GeometrySet{Points: []Point{{}}}
	if got := d.Process(small); len(got.Points) != 1 {
		t.Error("under-budget set should pass unchanged")
	}
}

func TestClassFilterPipe(t *testing.T) {
	f := &ClassFilterPipe{Tag: 2}
	in := &GeometrySet{Points: []Point{{Tag: 1}, {Tag: 2}, {Tag: 2}, {Tag: 3}}}
	out := f.Process(in)
	if len(out.Points) != 2 {
		t.Errorf("filtered to %d", len(out.Points))
	}
}

func TestGeometryMergeAndCamera(t *testing.T) {
	a := &GeometrySet{Points: []Point{{}}, Level: 1}
	b := &GeometrySet{Lines: []Line{{}}, Boxes: []Box3{{}}, Level: 3}
	a.Merge(b)
	if a.Size() != 3 || a.Level != 3 {
		t.Errorf("merge: size %d level %d", a.Size(), a.Level)
	}
	a.Merge(nil)

	c := NewCamera(vec.UnitBox(3), 10)
	z := c.Zoom(0.5)
	if z.View.Side(0) != 0.5 {
		t.Errorf("zoomed side = %v", z.View.Side(0))
	}
	p := c.Pan(vec.Point{1, 0, 0})
	if p.View.Min[0] != 1 {
		t.Errorf("panned min = %v", p.View.Min[0])
	}
	if c.key() == z.key() {
		t.Error("distinct cameras share a cache key")
	}
}

func TestCameraNeeds3D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("2-D camera should panic")
		}
	}()
	NewCamera(vec.UnitBox(2), 1)
}

func TestGeomCacheLRU(t *testing.T) {
	c := newGeomCache(2)
	c.put("a", &GeometrySet{Level: 1})
	c.put("b", &GeometrySet{Level: 2})
	c.put("c", &GeometrySet{Level: 3})
	if c.get("a") != nil {
		t.Error("oldest entry should have been evicted")
	}
	if g := c.get("c"); g == nil || g.Level != 3 {
		t.Error("newest entry missing")
	}
}

// vizFixture builds a grid index and kd-tree over a small catalog.
func vizFixture(t *testing.T, n int) (*grid.Index, *kdtree.Tree, vec.Box) {
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
	dom3 := vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3])
	gix, err := grid.Build(tb, "mag.grid", grid.DefaultParams(dom3, 7))
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := kdtree.Build(tb, "mag.kd", kdtree.BuildParams{Domain: sky.Domain()})
	if err != nil {
		t.Fatal(err)
	}
	return gix, tree, dom3
}

func TestPointCloudProducerLODAndCache(t *testing.T) {
	gix, _, dom3 := vizFixture(t, 10000)
	p := NewPointCloudProducer(gix, dom3, 500, 8)
	app := NewApp()
	app.AddPipeline(p)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	overview := NewCamera(dom3, 500)
	app.SetCamera(overview)
	g, err := app.WaitFrame(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Points) < 500 {
		t.Errorf("overview shows %d points, want >= 500", len(g.Points))
	}

	// Zoom in, then back out: the zoom-out must be a cache hit
	// ("when zooming in and then back out, the cache reduces time
	// delay to zero").
	app.SetCamera(overview.Zoom(0.5))
	if _, err := app.WaitFrame(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	before := p.CacheHits()
	app.SetCamera(overview)
	if _, err := app.WaitFrame(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.CacheHits() != before+1 {
		t.Errorf("zoom-out was not served from cache (hits %d -> %d)", before, p.CacheHits())
	}
}

func TestKdBoxProducerShowsEnoughBoxes(t *testing.T) {
	_, tree, dom3 := vizFixture(t, 20000)
	p := NewKdBoxProducer(tree, dom3, 64)
	app := NewApp()
	app.AddPipeline(p)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	app.SetCamera(NewCamera(dom3, 64))
	g, err := app.WaitFrame(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Boxes) < 64 {
		t.Errorf("kd producer shows %d boxes, want >= 64", len(g.Boxes))
	}
	if len(g.Boxes) > tree.NumLeaves() {
		t.Errorf("more boxes than leaves: %d > %d", len(g.Boxes), tree.NumLeaves())
	}
}

func TestDelaunayProducerLOD(t *testing.T) {
	// Two levels: a sparse 4-point graph and a denser 50-point graph.
	coarse := GraphLevel{
		Points: []vec.Point{{0.1, 0.1, 0}, {0.9, 0.1, 0}, {0.1, 0.9, 0}, {0.9, 0.9, 0}},
		Adj:    [][]int{{1, 2}, {0, 3}, {0, 3}, {1, 2}},
	}
	var fine GraphLevel
	for i := 0; i < 50; i++ {
		fine.Points = append(fine.Points, vec.Point{float64(i) / 50, 0.5, 0})
	}
	fine.Adj = make([][]int, 50)
	for i := 0; i+1 < 50; i++ {
		fine.Adj[i] = append(fine.Adj[i], i+1)
		fine.Adj[i+1] = append(fine.Adj[i+1], i)
	}
	p := NewDelaunayProducer([]GraphLevel{coarse, fine}, vec.UnitBox(3), 10)
	app := NewApp()
	app.AddPipeline(p)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	app.SetCamera(NewCamera(vec.UnitBox(3), 10))
	g, err := app.WaitFrame(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Coarse level has only 4 edges < 10, so the producer must fall
	// through to the fine level (49 edges).
	if g.Level != 2 {
		t.Errorf("LOD level = %d, want 2", g.Level)
	}
	if len(g.Lines) < 10 {
		t.Errorf("only %d lines in view", len(g.Lines))
	}
}

func TestAsciiRenderer(t *testing.T) {
	g := &GeometrySet{}
	// Dense cluster away from the diagonal so the rendered line does
	// not overwrite its cell.
	for i := 0; i < 50; i++ {
		g.Points = append(g.Points, Point{Pos: P3{0.75, 0.25, 0}})
	}
	g.Lines = append(g.Lines, Line{A: P3{0, 0, 0}, B: P3{1, 1, 0}})
	r := AsciiRenderer{W: 20, H: 10}
	out := r.Render(g, vec.UnitBox(3))
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("rendered %d rows", len(lines))
	}
	for _, l := range lines {
		if len([]rune(l)) != 20 {
			t.Fatalf("row width %d", len([]rune(l)))
		}
	}
	if !strings.Contains(out, "@") {
		t.Error("dense cell should use the top ramp character")
	}
	if !strings.Contains(out, "+") {
		t.Error("line overlay missing")
	}
	// Degenerate sizes.
	if (AsciiRenderer{W: 1, H: 1}).Render(g, vec.UnitBox(3)) != "" {
		t.Error("degenerate canvas should render empty")
	}
}

func TestRegistryLateSubscriberGetsLastCamera(t *testing.T) {
	r := &Registry{}
	r.fireCamera(NewCamera(vec.UnitBox(3), 5))
	got := 0
	r.OnCameraChanged(func(c Camera) { got = c.N })
	if got != 5 {
		t.Errorf("late subscriber saw N=%d", got)
	}
}
