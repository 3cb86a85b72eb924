// Package knn implements the paper's kd-tree based k-nearest
// neighbour procedure (§3.3): the primitive behind photometric
// redshift estimation and spectral similarity search.
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
// Rows appended after the tree was built (online ingest's minor
// compactions) sit past the tree's row prefix and belong to no leaf.
// Once the region growth halts, the search passes over those tail
// pages' zone maps and scans a page only if its zone lies within m —
// the same "cannot replace the farthest point" test, with page zones
// standing in for kd-boxes — so every search covers the whole table.
//
// Every query runs under its own pagestore accounting scope, so
// Stats.Pages is exactly the pages that query touched even while
// other queries run concurrently against the same store. SearchBatch
// runs many queries on one reusable scratch in seed-leaf locality
// order.
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
// that LeavesExamined ≪ total leaves. Pages is scope-exact: it
// counts only this query's page traffic, regardless of what other
// queries do concurrently.
type Stats struct {
	LeavesExamined int
	RowsExamined   int64
	Pages          pagestore.Stats
	Duration       time.Duration
}

// resultHeap is a bounded max-heap over Dist2: the "result list".
type resultHeap []Neighbor

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return h[i].Dist2 > h[j].Dist2 }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Neighbor)) }
func (h *resultHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// frontierEntry is one index-list element: a leaf and the squared
// distance from the query to its cell.
type frontierEntry struct {
	leaf  int
	dist2 float64
}

// frontierHeap is a min-heap over dist2: the "index list".
type frontierHeap []frontierEntry

func (h frontierHeap) Len() int           { return len(h) }
func (h frontierHeap) Less(i, j int) bool { return h[i].dist2 < h[j].dist2 }
func (h frontierHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *frontierHeap) Push(x any)        { *h = append(*h, x.(frontierEntry)) }
func (h *frontierHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// scratch is reusable per-batch search state. The visited set is a
// generation-stamped array, so resetting between queries is O(1)
// instead of allocating a NumLeaves-sized bitmap per call, and the
// two heaps keep their backing arrays across queries.
type scratch struct {
	visited  []uint32
	gen      uint32
	result   resultHeap
	frontier frontierHeap
	tail     []float64 // squared distance to each tail page's zone
}

func newScratch(numLeaves int) *scratch {
	return &scratch{visited: make([]uint32, numLeaves)}
}

// reset prepares the scratch for the next query.
func (scr *scratch) reset() {
	scr.gen++
	if scr.gen == 0 { // stamp wrapped: clear and restart
		for i := range scr.visited {
			scr.visited[i] = 0
		}
		scr.gen = 1
	}
	scr.result = scr.result[:0]
	scr.frontier = scr.frontier[:0]
}

func (scr *scratch) seen(leaf int) bool { return scr.visited[leaf] == scr.gen }
func (scr *scratch) visit(leaf int)     { scr.visited[leaf] = scr.gen }

// Searcher runs kNN queries against one kd-tree and its clustered
// table. It is safe for concurrent use: every query allocates (or,
// in SearchBatch, reuses) its own scratch state and accounting scope.
type Searcher struct {
	Tree *kdtree.Tree
	Tb   *table.Table
}

// NewSearcher pairs a tree with its leaf-clustered table.
func NewSearcher(tree *kdtree.Tree, tb *table.Table) *Searcher {
	return &Searcher{Tree: tree, Tb: tb}
}

// Search returns the k nearest neighbours of p in ascending distance
// order.
func (s *Searcher) Search(p vec.Point, k int) ([]Neighbor, Stats, error) {
	if err := s.validate(p, k); err != nil {
		return nil, Stats{}, err
	}
	return s.searchScoped(p, k, s.seedLeaf(p), newScratch(s.Tree.NumLeaves()))
}

// seedLeaf routes p (clamped into the domain, so off-data queries
// still land) to the leaf the region growth starts from.
func (s *Searcher) seedLeaf(p vec.Point) int {
	return s.Tree.LeafContaining(s.Tree.Root().Cell.ClosestPoint(p))
}

// validate checks the query arguments.
func (s *Searcher) validate(p vec.Point, k int) error {
	if k < 1 {
		return fmt.Errorf("knn: k must be >= 1, got %d", k)
	}
	if len(p) != s.Tree.Dim {
		return fmt.Errorf("knn: query dim %d != tree dim %d", len(p), s.Tree.Dim)
	}
	return nil
}

// searchScoped runs one validated query on the caller's scratch,
// attributing page traffic to a fresh per-query scope. seed is the
// query's precomputed seed leaf (SearchBatch routes every query
// once for its locality ordering and passes the result down).
func (s *Searcher) searchScoped(p vec.Point, k, seed int, scr *scratch) ([]Neighbor, Stats, error) {
	start := time.Now()
	scope := s.Tb.Store().Scoped()
	tb := s.Tb.Scoped(scope)
	var stats Stats
	out, err := s.run(tb, p, k, seed, scr, &stats)
	stats.Pages = scope.Stats()
	stats.Duration = time.Since(start)
	return out, stats, err
}

// run is the region-growing loop over an already-scoped table.
func (s *Searcher) run(tb *table.Table, p vec.Point, k, seed int, scr *scratch, stats *Stats) ([]Neighbor, error) {
	scr.reset()
	result, frontier := &scr.result, &scr.frontier

	heap.Push(frontier, frontierEntry{leaf: seed, dist2: s.Tree.LeafBox(seed).Dist2(p)})
	scr.visit(seed)

	m2 := func() float64 {
		if len(*result) < k {
			return math.Inf(1)
		}
		return (*result)[0].Dist2
	}

	for frontier.Len() > 0 {
		e := heap.Pop(frontier).(frontierEntry)
		if e.dist2 > m2() {
			break // index list exhausted within radius m: done
		}
		stats.LeavesExamined++
		lo, hi := s.Tree.LeafRows(e.leaf)
		if err := examineRows(tb, lo, hi, p, k, result, stats); err != nil {
			return nil, err
		}
		s.growAcrossFaces(e.leaf, p, m2(), scr, frontier)
	}

	// The tail: rows minor compactions appended past the tree's prefix
	// belong to no leaf, so the region-grow cannot reach them. Their
	// pages' zones stand in for the kd-boxes — a zone is a superset of
	// its page's rows and m only shrinks, so a page whose zone lies
	// farther than m can never displace a result. Compaction writes each
	// batch as a kd-ordered run, which keeps those zones tight. The zone
	// distances are taken in one locked pass; a page without a zone is at
	// distance 0. The first tail page may start mid-page, after the last
	// leaf's rows.
	if lo, hi := table.RowID(s.Tree.NumRows), table.RowID(tb.NumRows()); lo < hi {
		const perPage = table.RecordsPerPage
		first := int(lo / perPage)
		scr.tail = tb.ZoneMaps().Dist2Range(scr.tail[:0], first, int((hi-1)/perPage)+1, p)
		for i, d2 := range scr.tail {
			if d2 > m2() {
				continue
			}
			start := table.RowID(first+i) * perPage
			if err := examineRows(tb, max(lo, start), min(hi, start+perPage), p, k, result, stats); err != nil {
				return nil, err
			}
		}
	}

	out := make([]Neighbor, len(*result))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(result).(Neighbor)
	}
	return out, nil
}

// examineRows scans rows [lo, hi) — one leaf, or one tail page —
// refining the result list.
func examineRows(tb *table.Table, lo, hi table.RowID, p vec.Point, k int, result *resultHeap, stats *Stats) error {
	return tb.ScanRange(lo, hi, func(id table.RowID, r *table.Record) bool {
		stats.RowsExamined++
		d2 := dist2Mags(p, r)
		if len(*result) < k {
			heap.Push(result, Neighbor{Row: id, Dist2: d2, Rec: *r})
		} else if d2 < (*result)[0].Dist2 {
			(*result)[0] = Neighbor{Row: id, Dist2: d2, Rec: *r}
			heap.Fix(result, 0)
		}
		return true
	})
}

// growAcrossFaces admits the unvisited leaves adjacent to the given
// leaf across any face closer to p than the current radius m. For
// each face the crossing is a thin slab just beyond the face plane,
// intersected with the tree to enumerate every neighbouring cell —
// the multi-neighbour generalization of the paper's boundary points.
func (s *Searcher) growAcrossFaces(leaf int, p vec.Point, m2 float64, scr *scratch, frontier *frontierHeap) {
	cell := s.Tree.LeafBox(leaf)
	dim := cell.Dim()
	root := s.Tree.Root().Cell
	for axis := 0; axis < dim; axis++ {
		for side := 0; side < 2; side++ {
			// Boundary point: p clamped onto the face — the nearest point
			// of the face to p (the paper's projection, exact on faces).
			b := cell.ClosestPoint(p)
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
			b[axis] = faceCoord
			if d2 := p.Dist2(b); d2 > m2 {
				continue // boundary point farther than m: skip this face
			}
			// Slab just beyond the face, clipped to the face rectangle.
			slab := cell.Clone()
			eps := faceEps(root, axis)
			if side == 0 {
				slab.Min[axis], slab.Max[axis] = faceCoord-eps, faceCoord
			} else {
				slab.Min[axis], slab.Max[axis] = faceCoord, faceCoord+eps
			}
			s.collectLeavesIntersecting(slab, p, m2, scr, frontier)
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
func (s *Searcher) collectLeavesIntersecting(box vec.Box, p vec.Point, m2 float64, scr *scratch, frontier *frontierHeap) {
	stack := []int32{0}
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
				heap.Push(frontier, frontierEntry{leaf: leaf, dist2: n.Cell.Dist2(p)})
			}
			continue
		}
		stack = append(stack, n.Left, n.Right)
	}
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
	result := make(resultHeap, 0, k+1)
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
