package kdtree

import (
	"container/heap"
	"fmt"

	"repro/internal/vec"
)

// PointSearcher answers exact k-nearest-neighbour queries over an
// in-memory point set through a kd-tree. The Voronoi index uses it
// to assign each table row to its nearest seed and the witness-based
// Delaunay approximation uses it for two-nearest-seed queries; both
// run over seed sets small enough to live in memory (the paper's
// 10K-seed sample).
type PointSearcher struct {
	tree *Tree
	pts  []vec.Point
	perm []int32
}

// NewPointSearcher builds a searcher over pts (which must be
// non-empty and share one dimension).
func NewPointSearcher(pts []vec.Point) (*PointSearcher, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("kdtree: no points to search")
	}
	domain := vec.BoundingBox(pts)
	// Pad degenerate axes so the root cell has volume.
	for i := range domain.Min {
		if domain.Max[i]-domain.Min[i] <= 0 {
			domain.Min[i] -= 0.5
			domain.Max[i] += 0.5
		}
	}
	tree, perm, err := BuildFromPoints(pts, domain, 0)
	if err != nil {
		return nil, err
	}
	return &PointSearcher{tree: tree, pts: pts, perm: perm}, nil
}

// Len returns the number of indexed points.
func (s *PointSearcher) Len() int { return len(s.pts) }

// Point returns the indexed point i.
func (s *PointSearcher) Point(i int) vec.Point { return s.pts[i] }

// memHeapEntry participates in both the candidate max-heap (results)
// and the node min-heap (traversal).
type memHeapEntry struct {
	idx   int // point index or node index
	dist2 float64
}

type memMaxHeap []memHeapEntry

func (h memMaxHeap) Len() int           { return len(h) }
func (h memMaxHeap) Less(i, j int) bool { return h[i].dist2 > h[j].dist2 }
func (h memMaxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *memMaxHeap) Push(x any)        { *h = append(*h, x.(memHeapEntry)) }
func (h *memMaxHeap) Pop() any          { o := *h; n := len(o); x := o[n-1]; *h = o[:n-1]; return x }

type memMinHeap []memHeapEntry

func (h memMinHeap) Len() int           { return len(h) }
func (h memMinHeap) Less(i, j int) bool { return h[i].dist2 < h[j].dist2 }
func (h memMinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *memMinHeap) Push(x any)        { *h = append(*h, x.(memHeapEntry)) }
func (h *memMinHeap) Pop() any          { o := *h; n := len(o); x := o[n-1]; *h = o[:n-1]; return x }

// Nearest returns the indices of the k nearest points to p in
// ascending distance order (fewer when k exceeds the point count),
// using best-first traversal over tree nodes.
func (s *PointSearcher) Nearest(p vec.Point, k int) []int {
	if k < 1 {
		return nil
	}
	best := memMaxHeap{}
	nodes := memMinHeap{{idx: 0, dist2: s.tree.Nodes[0].Cell.Dist2(p)}}
	bound := func() float64 {
		if len(best) < k {
			return 1e308
		}
		return best[0].dist2
	}
	for nodes.Len() > 0 {
		e := heap.Pop(&nodes).(memHeapEntry)
		if e.dist2 > bound() {
			break
		}
		n := &s.tree.Nodes[e.idx]
		if n.IsLeaf() {
			for r := n.RowLo; r < n.RowHi; r++ {
				i := int(s.perm[r])
				d2 := p.Dist2(s.pts[i])
				if len(best) < k {
					heap.Push(&best, memHeapEntry{idx: i, dist2: d2})
				} else if d2 < best[0].dist2 {
					best[0] = memHeapEntry{idx: i, dist2: d2}
					heap.Fix(&best, 0)
				}
			}
			continue
		}
		l, r := n.Left, n.Right
		heap.Push(&nodes, memHeapEntry{idx: int(l), dist2: s.tree.Nodes[l].Bounds.Dist2(p)})
		heap.Push(&nodes, memHeapEntry{idx: int(r), dist2: s.tree.Nodes[r].Bounds.Dist2(p)})
	}
	out := make([]int, len(best))
	for i := len(best) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&best).(memHeapEntry).idx
	}
	return out
}

// NearestOne returns the index of the single nearest point.
func (s *PointSearcher) NearestOne(p vec.Point) int {
	r := s.Nearest(p, 1)
	return r[0]
}
