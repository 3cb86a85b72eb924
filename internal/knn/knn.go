// Package knn reproduces the paper's kd-tree based k-nearest
// neighbour procedure (§3.3) as the paper describes it: the experiment
// harness measures it (-exp knn), spectral similarity search and the
// photo-z estimator's offline Estimate run on it. Serving does not: a
// served kNN is the statement ORDER BY dist(p) LIMIT k, which walks the
// same kd-tree best node first under the same key bound
// (planner.Stream), so there is one exact engine behind every answer.
//
// The algorithm is the paper's region-growing scheme. Two lists are
// maintained: the result list holds the k best candidates found so
// far (a bounded max-heap keyed by distance), and the index list
// holds kd-tree leaves not yet examined (a min-heap keyed by the
// distance from the query point to the leaf's partition cell).
// Starting from the leaf containing the query point, the region
// grows across leaf boundaries: after examining a leaf, each of its
// 2d faces whose distance to the query is below m — the current
// k-th neighbour distance — admits the neighbouring leaves on the
// other side into the index list. The search halts when every
// frontier entry lies farther than m: no point outside the grown
// region can displace the farthest result ("the algorithm basically
// grows the region around p in steps of kd-boxes ... until it is
// impossible that points outside the grown region can replace the
// farthest point in the list").
//
// One refinement over the paper's prose: a leaf face may border
// several smaller leaves, so crossing a face enumerates all leaves
// whose cells touch the face within the current search radius (a
// thin-slab tree walk) instead of the single cell containing one
// boundary point. This keeps the region-growing exact on unbalanced
// neighbourhoods; the paper's TOP(k−f) refinement falls out for free
// because leaves are admitted in distance order.
//
// Each leaf's rows, like any ordered LIMIT's, are read as one scan
// under the query's dist(p) key bound (table.KeyBound), tightened to m²
// on every admission: a page whose zone lies strictly farther than m is
// skipped unread, the rows of a page read are ranked by their distance
// from the magnitude strips, and only a row that enters the result list
// is decoded. Admission is d² < m² in visit order, as in a full-record
// scan, so the answer — ties and their order included — is the one that
// scan gives.
//
// Rows appended after the tree was built (online ingest's minor
// compactions) sit past the tree's row prefix and belong to no leaf.
// Once the region growth halts, the search scans that tail under the
// same bound — page zones standing in for kd-boxes in the same "cannot
// replace the farthest point" test — so every search covers the whole
// table.
//
// Every query runs under its own pagestore accounting scope, so
// Stats.Pages is exactly the pages that query touched even while
// other queries run concurrently against the same store.
package knn

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"repro/internal/kdtree"
	"repro/internal/pagestore"
	"repro/internal/table"
	"repro/internal/vec"
)

// Neighbor is one search result.
type Neighbor struct {
	Row   table.RowID
	Dist2 float64
	Rec   table.Record
}

// Stats reports the cost of one search — the §3.3 evaluation is
// that LeavesExamined ≪ total leaves. RowsExamined counts the rows, in
// the ranges searched, of the pages read; a page skipped by its zone
// counts none. Pages is scope-exact: it counts only this query's page
// traffic, regardless of what other queries do concurrently.
type Stats struct {
	LeavesExamined int
	RowsExamined   int64
	Pages          pagestore.Stats
	Duration       time.Duration
}

// frontierEntry is one index-list element: a leaf and the squared
// distance from the query to its cell.
type frontierEntry struct {
	leaf  int
	dist2 float64
}

// farther orders the result list, a max-heap over Dist2, and nearer the
// index list, a min-heap over dist2. Both are typed slices kept by push,
// pop, siftUp and siftDown — container/heap's Push, Pop, up and down,
// comparison for comparison and swap for swap — so ties settle exactly
// as they would there, without boxing an element per push or pop.
func farther(a, b *Neighbor) bool     { return a.Dist2 > b.Dist2 }
func nearer(a, b *frontierEntry) bool { return a.dist2 < b.dist2 }

// push appends x and restores the heap, as heap.Push does.
func push[T any](h []T, x T, less func(a, b *T) bool) []T {
	h = append(h, x)
	siftUp(h, len(h)-1, less)
	return h
}

// pop removes and returns the root, as heap.Pop does.
func pop[T any](h []T, less func(a, b *T) bool) ([]T, T) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	siftDown(h, 0, n, less)
	return h[:n], h[n]
}

func siftUp[T any](h []T, j int, less func(a, b *T) bool) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !less(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func siftDown[T any](h []T, i, n int, less func(a, b *T) bool) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && less(&h[j2], &h[j1]) {
			j = j2
		}
		if !less(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// scratch is one query's search state: the leaves already admitted,
// both heaps, the face-crossing buffers and the scan counters.
type scratch struct {
	visited  []bool
	result   []Neighbor
	frontier []frontierEntry
	counters table.ScanCounters
	closest  vec.Point // a leaf cell's point nearest the query
	slab     vec.Box   // the slab just beyond one face
	stack    []int32   // the slab walk's pending nodes
}

func (scr *scratch) seen(leaf int) bool { return scr.visited[leaf] }
func (scr *scratch) visit(leaf int)     { scr.visited[leaf] = true }

// Searcher runs kNN queries against one kd-tree and its clustered
// table. It is safe for concurrent use: every query allocates its own
// scratch state and accounting scope.
type Searcher struct {
	Tree *kdtree.Tree
	Tb   *table.Table
}

// NewSearcher pairs a tree with its leaf-clustered table.
func NewSearcher(tree *kdtree.Tree, tb *table.Table) *Searcher {
	return &Searcher{Tree: tree, Tb: tb}
}

// Search returns the k nearest neighbours of p in ascending distance
// order, with the query's page traffic under a fresh scope.
func (s *Searcher) Search(p vec.Point, k int) ([]Neighbor, Stats, error) {
	if k < 1 {
		return nil, Stats{}, fmt.Errorf("knn: k must be >= 1, got %d", k)
	}
	if len(p) != s.Tree.Dim {
		return nil, Stats{}, fmt.Errorf("knn: query dim %d != tree dim %d", len(p), s.Tree.Dim)
	}
	start := time.Now()
	scope := s.Tb.Store().Scoped()
	scr := &scratch{
		visited: make([]bool, s.Tree.NumLeaves()),
		closest: make(vec.Point, s.Tree.Dim),
		slab:    vec.Box{Min: make(vec.Point, s.Tree.Dim), Max: make(vec.Point, s.Tree.Dim)},
	}
	// The region growth starts from the leaf p routes to, clamped into
	// the domain so off-data queries still land.
	seed := s.Tree.LeafContaining(s.Tree.Root().Cell.ClosestPoint(p))
	var stats Stats
	out, err := s.run(s.Tb.Scoped(scope), p, k, seed, scr, &stats)
	stats.Pages = scope.Stats()
	stats.Duration = time.Since(start)
	return out, stats, err
}

// run is the region-growing loop over an already-scoped table. Every
// range it reads — a leaf, then the unindexed tail — is one scan under
// the query's dist(p) bound, tightened to the k-th d² on each
// admission: a page whose zone lies strictly farther is skipped unread,
// rows are ranked from the magnitude strips, and only a row that enters
// the result list is decoded.
func (s *Searcher) run(tb *table.Table, p vec.Point, k, seed int, scr *scratch, stats *Stats) ([]Neighbor, error) {
	bound := table.NewDistBound(p, false)
	it := tb.IterRangePred(nil, 0, 0, table.ColAll, nil, bound, &scr.counters)
	defer it.Close()

	scr.frontier = push(scr.frontier, frontierEntry{leaf: seed, dist2: s.Tree.LeafBox(seed).Dist2(p)}, nearer)
	scr.visit(seed)

	for len(scr.frontier) > 0 {
		var e frontierEntry
		scr.frontier, e = pop(scr.frontier, nearer)
		if e.dist2 > scr.radius2(k) {
			break // index list exhausted within radius m: done
		}
		stats.LeavesExamined++
		lo, hi := s.Tree.LeafRows(e.leaf)
		if err := scr.scan(it, lo, hi, k, bound); err != nil {
			return nil, err
		}
		s.growAcrossFaces(e.leaf, p, scr.radius2(k), scr)
	}

	// The tail: rows minor compactions appended past the tree's prefix
	// belong to no leaf, so the region-grow cannot reach them. Their
	// pages' zones stand in for the kd-boxes: the scan skips a page whose
	// zone lies strictly farther than m, which only shrinks — a zone is a
	// superset of its page's rows, so such a page can never displace a
	// result. Compaction writes each batch as a kd-ordered run, which
	// keeps those zones tight; a page without a zone is always read.
	if err := scr.scan(it, table.RowID(s.Tree.NumRows), table.RowID(tb.NumRows()), k, bound); err != nil {
		return nil, err
	}
	stats.RowsExamined = scr.counters.Examined.Load()

	out := make([]Neighbor, len(scr.result))
	for i := len(out) - 1; i >= 0; i-- {
		scr.result, out[i] = pop(scr.result, farther)
	}
	return out, nil
}

// radius2 is m², the current k-th neighbour's squared distance: +Inf
// until the result list holds k rows.
func (scr *scratch) radius2(k int) float64 {
	if len(scr.result) < k {
		return math.Inf(1)
	}
	return scr.result[0].Dist2
}

// scan reads rows [lo, hi) — one leaf, or the tail — into the result
// list. Admission is d² < m² in visit order, so a row the bound passes
// with d² tying m² is still turned away here; a full list publishes its
// new m² to the bound.
func (scr *scratch) scan(it *table.Iter, lo, hi table.RowID, k int, bound *table.KeyBound) error {
	it.Reset(lo, hi)
	for {
		row, d2, ok := it.NextKey()
		if !ok {
			return it.Err()
		}
		switch h := scr.result; {
		case len(h) < k:
			h = append(h, Neighbor{Row: row, Dist2: d2})
			it.Decode(&h[len(h)-1].Rec)
			siftUp(h, len(h)-1, farther)
			scr.result = h
		case d2 < h[0].Dist2:
			h[0].Row, h[0].Dist2 = row, d2
			it.Decode(&h[0].Rec)
			siftDown(h, 0, len(h), farther)
		default:
			continue
		}
		if len(scr.result) == k {
			bound.Tighten(scr.result[0].Dist2)
		}
	}
}

// growAcrossFaces admits the unvisited leaves adjacent to the given
// leaf across any face closer to p than the current radius m. For
// each face the crossing is a thin slab just beyond the face plane,
// intersected with the tree to enumerate every neighbouring cell —
// the multi-neighbour generalization of the paper's boundary points.
func (s *Searcher) growAcrossFaces(leaf int, p vec.Point, m2 float64, scr *scratch) {
	cell := s.Tree.LeafBox(leaf)
	dim := cell.Dim()
	root := s.Tree.Root().Cell
	// b is p clamped into the cell (vec.Box.ClosestPoint); with one
	// coordinate moved onto a face it is the face's point nearest p (the
	// paper's projection, exact on faces).
	b := scr.closest
	for i := range b {
		b[i] = math.Max(cell.Min[i], math.Min(cell.Max[i], p[i]))
	}
	for axis := 0; axis < dim; axis++ {
		for side := 0; side < 2; side++ {
			var faceCoord float64
			if side == 0 {
				faceCoord = cell.Min[axis]
				if faceCoord <= root.Min[axis] {
					continue // domain wall
				}
			} else {
				faceCoord = cell.Max[axis]
				if faceCoord >= root.Max[axis] {
					continue
				}
			}
			inside := b[axis]
			b[axis] = faceCoord
			d2 := p.Dist2(b)
			b[axis] = inside
			if d2 > m2 {
				continue // boundary point farther than m: skip this face
			}
			// Slab just beyond the face, clipped to the face rectangle.
			slab := scr.slab
			copy(slab.Min, cell.Min)
			copy(slab.Max, cell.Max)
			eps := faceEps(root, axis)
			if side == 0 {
				slab.Min[axis], slab.Max[axis] = faceCoord-eps, faceCoord
			} else {
				slab.Min[axis], slab.Max[axis] = faceCoord, faceCoord+eps
			}
			s.collectLeavesIntersecting(slab, p, m2, scr)
		}
	}
}

// faceEps is the slab thickness used to peek across a face.
func faceEps(root vec.Box, axis int) float64 {
	side := root.Side(axis)
	if side <= 0 {
		return 1e-12
	}
	return side * 1e-9
}

// collectLeavesIntersecting walks the tree pushing every unvisited
// leaf whose cell intersects box and lies within radius² m2 of p.
func (s *Searcher) collectLeavesIntersecting(box vec.Box, p vec.Point, m2 float64, scr *scratch) {
	stack := append(scr.stack[:0], 0)
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &s.Tree.Nodes[idx]
		if !n.Cell.Intersects(box) {
			continue
		}
		if d2 := n.Cell.Dist2(p); d2 > m2 {
			continue
		}
		if n.IsLeaf() {
			leaf := int(n.Leaf)
			if !scr.seen(leaf) {
				scr.visit(leaf)
				scr.frontier = push(scr.frontier, frontierEntry{leaf: leaf, dist2: n.Cell.Dist2(p)}, nearer)
			}
			continue
		}
		stack = append(stack, n.Left, n.Right)
	}
	scr.stack = stack
}

// dist2Mags computes |p - record.Mags|² without allocating.
func dist2Mags(p vec.Point, r *table.Record) float64 {
	var s float64
	for i := range p {
		d := p[i] - float64(r.Mags[i])
		s += d * d
	}
	return s
}

// bruteHeap is BruteForce's bounded max-heap over Dist2, kept by
// container/heap.
type bruteHeap []Neighbor

func (h bruteHeap) Len() int           { return len(h) }
func (h bruteHeap) Less(i, j int) bool { return h[i].Dist2 > h[j].Dist2 }
func (h bruteHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *bruteHeap) Push(x any)        { *h = append(*h, x.(Neighbor)) }
func (h *bruteHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// BruteForce returns the exact k nearest neighbours by scanning the
// whole table — the reference the index-assisted search is verified
// against and the baseline of the kNN benchmarks. Pages stats are
// scope-exact, like Search.
func BruteForce(tb *table.Table, p vec.Point, k int) ([]Neighbor, Stats, error) {
	if k < 1 {
		return nil, Stats{}, fmt.Errorf("knn: k must be >= 1, got %d", k)
	}
	if len(p) != table.Dim {
		return nil, Stats{}, fmt.Errorf("knn: query dim %d != table dim %d", len(p), table.Dim)
	}
	start := time.Now()
	scope := tb.Store().Scoped()
	stb := tb.Scoped(scope).ScanClassed()
	var stats Stats
	result := make(bruteHeap, 0, k+1)
	err := stb.Scan(func(id table.RowID, r *table.Record) bool {
		stats.RowsExamined++
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
		return nil, stats, err
	}
	out := make([]Neighbor, len(result))
	for i := len(result) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&result).(Neighbor)
	}
	stats.Pages = scope.Stats()
	stats.Duration = time.Since(start)
	return out, stats, nil
}
