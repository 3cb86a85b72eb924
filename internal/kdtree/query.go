package kdtree

import (
	"repro/internal/table"
	"repro/internal/vec"
)

// Range is one candidate row interval produced by classifying the
// tree against a query's clauses without touching the table. Ranges
// are emitted in ascending row order, so concatenating their
// admitted rows gives the answer in physical order.
type Range struct {
	Lo, Hi table.RowID
	// Filter is true for partial leaves (Figure 4's red cells): the
	// rows need the per-point polyhedron test. Ranges with Filter
	// false lie entirely inside the query.
	Filter bool
}

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
			ranges = append(ranges, Range{Lo: n.RowLo, Hi: n.RowHi})
		case vec.Partial:
			if n.IsLeaf() {
				ranges = append(ranges, Range{Lo: n.RowLo, Hi: n.RowHi, Filter: true})
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
