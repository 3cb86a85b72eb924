package kdtree

import (
	"time"

	"repro/internal/pagestore"
	"repro/internal/table"
	"repro/internal/vec"
)

// QueryStats reports the cost of one index-assisted polyhedron
// query: the quantities behind Figure 5.
type QueryStats struct {
	NodesVisited  int   // tree nodes whose boxes were classified
	LeavesInside  int   // leaves bulk-returned without filtering
	LeavesPartial int   // red cells of Figure 4: per-point filtered
	RowsExamined  int64 // rows decoded (bulk + filtered)
	RowsReturned  int64
	Pages         pagestore.Stats
	Duration      time.Duration
}

// Pruning selects which box the query recursion classifies at each
// node.
type Pruning int

const (
	// PruneTightBounds classifies the tight bounding box of the
	// node's points — on clustered data these are dramatically
	// smaller than the partition cells, which is precisely why the
	// index follows the structure of the data. This is the default.
	PruneTightBounds Pruning = iota
	// PrunePartitionCells classifies the partition cell instead; the
	// ablation benchmarks use it to quantify what the tight bounds
	// buy.
	PrunePartitionCells
)

// QueryPolyhedron answers "all rows inside q" using the tree over
// the leaf-clustered table tb (the pair returned by Build). The
// recursion classifies each node's box against the polyhedron:
// Inside subtrees are returned as whole BETWEEN row ranges with no
// per-point work; Outside subtrees are skipped; Partial recursion
// continues to the leaves, where rows are filtered individually
// (Figure 4).
func (t *Tree) QueryPolyhedron(tb *table.Table, q vec.Polyhedron) ([]table.RowID, QueryStats, error) {
	return t.QueryPolyhedronPruned(tb, q, PruneTightBounds)
}

// QueryPolyhedronPruned is QueryPolyhedron with an explicit pruning
// strategy.
func (t *Tree) QueryPolyhedronPruned(tb *table.Table, q vec.Polyhedron, pr Pruning) ([]table.RowID, QueryStats, error) {
	start := time.Now()
	before := tb.Store().Stats()
	var stats QueryStats
	var out []table.RowID

	type frame struct{ idx int32 }
	stack := []frame{{0}}
	var err error
	for len(stack) > 0 && err == nil {
		idx := stack[len(stack)-1].idx
		stack = stack[:len(stack)-1]
		n := &t.Nodes[idx]
		if n.RowLo == n.RowHi {
			continue // empty subtree: nothing to classify
		}
		stats.NodesVisited++
		box := n.Bounds
		if pr == PrunePartitionCells {
			box = n.Cell
		}
		switch q.ClassifyBox(box) {
		case vec.Outside:
			continue
		case vec.Inside:
			// Whole subtree matches: one contiguous row range.
			if n.IsLeaf() {
				stats.LeavesInside++
			} else {
				stats.LeavesInside += countLeaves(t, idx)
			}
			err = tb.ScanRange(n.RowLo, n.RowHi, func(id table.RowID, r *table.Record) bool {
				stats.RowsExamined++
				out = append(out, id)
				return true
			})
		case vec.Partial:
			if n.IsLeaf() {
				stats.LeavesPartial++
				err = tb.ScanRange(n.RowLo, n.RowHi, func(id table.RowID, r *table.Record) bool {
					stats.RowsExamined++
					if q.Contains(r.Point()) {
						out = append(out, id)
					}
					return true
				})
			} else {
				stack = append(stack, frame{n.Right}, frame{n.Left})
			}
		}
	}
	stats.RowsReturned = int64(len(out))
	stats.Pages = tb.Store().Stats().Sub(before)
	stats.Duration = time.Since(start)
	return out, stats, err
}

// countLeaves returns the number of leaves under the node.
func countLeaves(t *Tree, idx int32) int {
	n := &t.Nodes[idx]
	// A balanced subtree of size 2k+1 has k+1 leaves.
	return int(n.SubtreeSize+1) / 2
}

// Range is one candidate row interval produced by classifying the
// tree against a query's clauses without touching the table. Ranges
// are emitted in ascending row order, so concatenating their rows
// reproduces the physical-order answer of QueryPolyhedron.
type Range struct {
	Lo, Hi table.RowID
	// Filter is true for partial leaves (Figure 4's red cells): the
	// rows need the per-point polyhedron test. Ranges with Filter
	// false lie entirely inside the query.
	Filter bool
	// Bounds is the tight bounding box of the node that produced the
	// range; the planner uses it to apportion partial leaves by
	// volume overlap.
	Bounds vec.Box
}

// Rows returns the number of rows in the range.
func (r Range) Rows() int64 { return int64(r.Hi - r.Lo) }

// CollectRanges classifies the tree's tight bounds against the clauses
// of a WHERE — a DNF union; one polyhedron is a set of one — entirely
// in memory: the hierarchical zone map of the leaf-clustered table. A
// node Outside every clause prunes its whole subtree of pages in one
// test; a node Inside any clause becomes one bulk range; only Partial
// recursion reaches the leaves, which become filter ranges whose rows
// are tested against the disjunction. The ranges come back disjoint,
// in ascending row order, with the number of nodes classified, and no
// table I/O is performed: the cost-based planner prices and the
// executor scans exactly these ranges.
func (t *Tree) CollectRanges(clauses []vec.Polyhedron) (ranges []Range, nodes int) {
	stack := []int32{0}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.Nodes[idx]
		if n.RowLo == n.RowHi {
			continue
		}
		nodes++
		switch vec.ClassifyBoxUnion(clauses, n.Bounds) {
		case vec.Inside:
			ranges = append(ranges, Range{Lo: n.RowLo, Hi: n.RowHi, Bounds: n.Bounds})
		case vec.Partial:
			if n.IsLeaf() {
				ranges = append(ranges, Range{Lo: n.RowLo, Hi: n.RowHi, Filter: true, Bounds: n.Bounds})
			} else {
				stack = append(stack, n.Right, n.Left)
			}
		}
	}
	return ranges, nodes
}

// ClassifyLeaves returns, for a query polyhedron, how many leaf
// cells fall inside / outside / partial — the cell coloring of
// Figure 4. It classifies partition cells (not tight bounds) because
// the figure depicts the spatial decomposition itself.
func (t *Tree) ClassifyLeaves(q vec.Polyhedron) (inside, outside, partial int) {
	for _, ni := range t.LeafNodes {
		switch q.ClassifyBox(t.Nodes[ni].Cell) {
		case vec.Inside:
			inside++
		case vec.Outside:
			outside++
		default:
			partial++
		}
	}
	return
}
