package viz

import (
	"sync"

	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/vec"
)

// asyncProducer is the shared machinery of all database-backed
// producers: a single worker goroutine consumes the latest camera
// (stale cameras are dropped — only the newest request matters while
// the user drags), computes geometry via the concrete producer's
// compute function, stores it behind a try-lock, and signals
// production. This is the §5.1 multi-threaded plugin pattern.
type asyncProducer struct {
	compute func(Camera) *GeometrySet
	initial Camera
	// selfP is the concrete Producer embedding this core; it is what
	// SignalProduction reports to the application. Concrete types set
	// it via setSelf before Start.
	selfP Producer

	reg  *Registry
	work chan Camera
	stop chan struct{}
	wg   sync.WaitGroup

	// out holds the last completed geometry; outMu is the try-lock of
	// the GetOutput handshake.
	outMu sync.Mutex
	out   *GeometrySet

	statsMu   sync.Mutex
	computes  int
	cacheHits int
}

func newAsyncProducer(initial Camera, compute func(Camera) *GeometrySet) *asyncProducer {
	return &asyncProducer{
		compute: compute,
		initial: initial,
		work:    make(chan Camera, 1),
		stop:    make(chan struct{}),
	}
}

// Initialize implements Plugin: subscribe to camera changes,
// coalescing bursts to the latest value.
func (p *asyncProducer) Initialize(reg *Registry) bool {
	p.reg = reg
	reg.OnCameraChanged(func(c Camera) {
		for {
			select {
			case p.work <- c:
				return
			default:
				// Drop the stale pending camera and retry with the new one.
				select {
				case <-p.work:
				default:
				}
			}
		}
	})
	return true
}

// Start implements Plugin: launch the worker.
func (p *asyncProducer) Start() bool {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case <-p.stop:
				return
			case cam := <-p.work:
				g := p.compute(cam)
				p.statsMu.Lock()
				p.computes++
				p.statsMu.Unlock()
				p.outMu.Lock()
				p.out = g
				p.outMu.Unlock()
				if p.reg != nil {
					p.reg.SignalProduction(p.self(), cam)
				}
			}
		}
	}()
	return true
}

// self returns the concrete Producer for SignalProduction.
func (p *asyncProducer) self() Producer { return p.selfP }

// Stop implements Plugin.
func (p *asyncProducer) Stop() bool {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	p.wg.Wait()
	return true
}

// Shutdown implements Plugin.
func (p *asyncProducer) Shutdown() {}

// GetOutput implements Producer with the non-blocking handshake: if
// the worker currently holds the lock (swapping in fresh geometry),
// return nil and let the application retry next frame.
func (p *asyncProducer) GetOutput() *GeometrySet {
	if !p.outMu.TryLock() {
		return nil
	}
	g := p.out
	p.outMu.Unlock()
	return g
}

// SuggestInitial implements Producer.
func (p *asyncProducer) SuggestInitial() Camera { return p.initial }

// Computes returns how many times the worker recomputed geometry.
func (p *asyncProducer) Computes() int {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.computes
}

// CacheHits returns how many requests were served from the local
// geometry cache.
func (p *asyncProducer) CacheHits() int {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.cacheHits
}

// hitCache bumps the cache counter.
func (p *asyncProducer) hitCache() {
	p.statsMu.Lock()
	p.cacheHits++
	p.statsMu.Unlock()
}

// selfP wiring.
type producerCore = asyncProducer

// geomCache is the per-plugin LRU of recent results: "our plugins
// save the last n result sets, and when a camera change event is
// fired, they first look for geometry in this local, in-memory
// cache" (§5.1).
type geomCache struct {
	mu    sync.Mutex
	cap   int
	order []string
	data  map[string]*GeometrySet
}

func newGeomCache(capacity int) *geomCache {
	return &geomCache{cap: capacity, data: make(map[string]*GeometrySet)}
}

func (c *geomCache) get(key string) *GeometrySet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.data[key]
}

func (c *geomCache) put(key string, g *GeometrySet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.data[key]; !ok {
		c.order = append(c.order, key)
		if len(c.order) > c.cap {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.data, evict)
		}
	}
	c.data[key] = g
}

// PointCloudProducer adaptively visualizes the magnitude table
// through the layered uniform grid (§3.1 + §5.2): every camera
// change asks the grid for at least N points inside the view box,
// first consulting the local cache.
type PointCloudProducer struct {
	*producerCore
	grid  *grid.Index
	cache *geomCache
}

// setSelf wires the concrete Producer into the core.
func (p *asyncProducer) setSelf(prod Producer) { p.selfP = prod }

// NewPointCloudProducer builds the producer over a grid index. The
// initial camera shows the whole grid domain.
func NewPointCloudProducer(ix *grid.Index, domain vec.Box, n int, cacheSize int) *PointCloudProducer {
	p := &PointCloudProducer{cache: newGeomCache(cacheSize), grid: ix}
	core := newAsyncProducer(NewCamera(domain, n), p.computeCam)
	p.producerCore = core
	core.setSelf(p)
	return p
}

func (p *PointCloudProducer) computeCam(cam Camera) *GeometrySet {
	if g := p.cache.get(cam.key()); g != nil {
		p.hitCache()
		return g
	}
	recs, stats, err := p.grid.Sample(cam.View, cam.N)
	if err != nil {
		return &GeometrySet{}
	}
	g := &GeometrySet{Level: stats.LayersUsed}
	for i := range recs {
		g.Points = append(g.Points, Point{
			Pos: P3{float64(recs[i].Mags[0]), float64(recs[i].Mags[1]), float64(recs[i].Mags[2])},
			Tag: uint8(recs[i].Class),
		})
	}
	p.cache.put(cam.key(), g)
	return g
}

// KdBoxProducer adaptively visualizes the kd-tree itself (§5.2,
// Figure 15): it descends the tree until at least MinBoxes node
// boxes intersect the view, then emits their first-three-axes
// projections.
type KdBoxProducer struct {
	*producerCore
	tree *kdtree.Tree
	min  int
}

// NewKdBoxProducer builds the producer; minBoxes is the paper's
// n = 500 visible boxes target.
func NewKdBoxProducer(tree *kdtree.Tree, domain vec.Box, minBoxes int) *KdBoxProducer {
	p := &KdBoxProducer{tree: tree, min: minBoxes}
	core := newAsyncProducer(NewCamera(domain, minBoxes), p.computeCam)
	p.producerCore = core
	core.setSelf(p)
	return p
}

func (p *KdBoxProducer) computeCam(cam Camera) *GeometrySet {
	// Level-order expansion: start at the root, keep splitting the
	// frontier until enough visible boxes accumulate.
	frontier := []int32{0}
	for {
		visible := 0
		var next []int32
		canExpand := false
		for _, idx := range frontier {
			n := &p.tree.Nodes[idx]
			if boxIntersectsView(n.Bounds, cam.View) {
				visible++
			}
			if n.IsLeaf() {
				next = append(next, idx)
			} else {
				canExpand = true
				next = append(next, n.Left, n.Right)
			}
		}
		if visible >= p.min || !canExpand {
			g := &GeometrySet{}
			for _, idx := range frontier {
				n := &p.tree.Nodes[idx]
				if !boxIntersectsView(n.Bounds, cam.View) || n.Bounds.IsEmpty() {
					continue
				}
				g.Boxes = append(g.Boxes, Box3{
					Min: P3{n.Bounds.Min[0], n.Bounds.Min[1], n.Bounds.Min[2]},
					Max: P3{n.Bounds.Max[0], n.Bounds.Max[1], n.Bounds.Max[2]},
				})
			}
			return g
		}
		frontier = next
	}
}

// boxIntersectsView projects the (possibly 5-D) bounds onto the
// first three axes and intersects with the 3-D view box.
func boxIntersectsView(b vec.Box, view vec.Box) bool {
	if b.IsEmpty() {
		return false
	}
	for i := 0; i < 3; i++ {
		if b.Max[i] < view.Min[i] || view.Max[i] < b.Min[i] {
			return false
		}
	}
	return true
}

// GraphLevel is one LOD level of a precomputed spatial graph: points
// plus adjacency (Delaunay edges of a 1K/10K/100K sample in the
// paper's demo).
type GraphLevel struct {
	Points []vec.Point // 3-D positions
	Adj    [][]int
}

// DelaunayProducer adaptively visualizes Delaunay graphs (§5.2,
// Figure 16's wireframes): it walks the LOD levels in order and
// returns the first level showing at least MinEdges edges in view,
// falling back to the finest level.
type DelaunayProducer struct {
	*producerCore
	levels []GraphLevel
	min    int
}

// NewDelaunayProducer builds the producer over coarse-to-fine graph
// levels.
func NewDelaunayProducer(levels []GraphLevel, domain vec.Box, minEdges int) *DelaunayProducer {
	p := &DelaunayProducer{levels: levels, min: minEdges}
	core := newAsyncProducer(NewCamera(domain, minEdges), p.computeCam)
	p.producerCore = core
	core.setSelf(p)
	return p
}

func (p *DelaunayProducer) computeCam(cam Camera) *GeometrySet {
	var best *GeometrySet
	for li, level := range p.levels {
		g := &GeometrySet{Level: li + 1}
		for a, ns := range level.Adj {
			pa := level.Points[a]
			inA := cam.View.Contains(pa[:3])
			for _, b := range ns {
				if b <= a {
					continue
				}
				pb := level.Points[b]
				if !inA && !cam.View.Contains(pb[:3]) {
					continue
				}
				g.Lines = append(g.Lines, Line{
					A: P3{pa[0], pa[1], pa[2]},
					B: P3{pb[0], pb[1], pb[2]},
				})
			}
		}
		best = g
		if len(g.Lines) >= p.min {
			return g
		}
	}
	if best == nil {
		best = &GeometrySet{}
	}
	return best
}

// DecimatePipe caps the number of points flowing downstream — a
// protective filter for consumer-grade clients ("visualizing more
// than a few million objects is not possible on consumer-grade
// PCs").
type DecimatePipe struct {
	Max int
}

// Initialize implements Plugin.
func (d *DecimatePipe) Initialize(*Registry) bool { return true }

// Start implements Plugin.
func (d *DecimatePipe) Start() bool { return true }

// Stop implements Plugin.
func (d *DecimatePipe) Stop() bool { return true }

// Shutdown implements Plugin.
func (d *DecimatePipe) Shutdown() {}

// Process implements Pipe: keeps a uniform stride subsample of the
// points when over budget.
func (d *DecimatePipe) Process(in *GeometrySet) *GeometrySet {
	if in == nil || d.Max <= 0 || len(in.Points) <= d.Max {
		return in
	}
	out := &GeometrySet{Lines: in.Lines, Boxes: in.Boxes, Level: in.Level}
	stride := float64(len(in.Points)) / float64(d.Max)
	for i := 0; i < d.Max; i++ {
		out.Points = append(out.Points, in.Points[int(float64(i)*stride)])
	}
	return out
}

// ClassFilterPipe keeps only points with the given tag — the
// "color by spectral type" toggle of Figure 1.
type ClassFilterPipe struct {
	Tag uint8
}

// Initialize implements Plugin.
func (c *ClassFilterPipe) Initialize(*Registry) bool { return true }

// Start implements Plugin.
func (c *ClassFilterPipe) Start() bool { return true }

// Stop implements Plugin.
func (c *ClassFilterPipe) Stop() bool { return true }

// Shutdown implements Plugin.
func (c *ClassFilterPipe) Shutdown() {}

// Process implements Pipe.
func (c *ClassFilterPipe) Process(in *GeometrySet) *GeometrySet {
	if in == nil {
		return nil
	}
	out := &GeometrySet{Lines: in.Lines, Boxes: in.Boxes, Level: in.Level}
	for _, p := range in.Points {
		if p.Tag == c.Tag {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// Compile-time interface checks.
var (
	_ Producer = (*PointCloudProducer)(nil)
	_ Producer = (*KdBoxProducer)(nil)
	_ Producer = (*DelaunayProducer)(nil)
	_ Pipe     = (*DecimatePipe)(nil)
	_ Pipe     = (*ClassFilterPipe)(nil)
)
