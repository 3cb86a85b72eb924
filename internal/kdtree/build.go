package kdtree

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/pagestore"
	"repro/internal/table"
	"repro/internal/vec"
)

// BuildParams configures tree construction.
type BuildParams struct {
	// Levels is the number of split levels; 0 means the paper's
	// √N-leaves rule via ChooseLevels.
	Levels int
	// Domain is the root partition cell, widened to the rows' bounding
	// box by BuildRecords.
	Domain vec.Box
}

// Build constructs a balanced kd-tree over the rows of tb and writes
// them clustered by leaf to a new table clusteredName in tb's store:
// BuildRecords over the table's rows.
func Build(tb *table.Table, clusteredName string, p BuildParams) (*Tree, *table.Table, error) {
	recs := make([]table.Record, 0, tb.NumRows())
	// One pass over every page: scan-class, so an offline build does
	// not flush a serving pool's hot set.
	err := tb.ScanClassed().Scan(func(_ table.RowID, r *table.Record) bool {
		recs = append(recs, *r)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return BuildRecords(tb.Store(), recs, clusteredName, p)
}

// BuildRecords constructs a balanced kd-tree over the magnitude
// vectors of recs, writes the records clustered by leaf — each row's
// leaf in its LeafID column — to a new table clusteredName in store,
// and returns the tree and that table, the one its row ranges refer
// to.
//
// What it builds is a function of the set of records alone, never of
// their order: splits partition on a total order over records (the
// split axis's magnitude, then ObjID, then every other column), and
// each leaf's rows are sorted along the axis its bounds are widest on,
// under the same order. A rebuild over a clustered table's own rows
// therefore writes exactly what a fresh build over the same rows
// writes, wherever they sat.
func BuildRecords(store *pagestore.Store, recs []table.Record, clusteredName string, p BuildParams) (*Tree, *table.Table, error) {
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("kdtree: empty table")
	}
	if p.Domain.Dim() != table.Dim {
		return nil, nil, fmt.Errorf("kdtree: domain dim %d != point dim %d", p.Domain.Dim(), table.Dim)
	}
	domain := p.Domain.Clone()
	for i := range recs {
		domain.ExtendPoint(recs[i].Point())
	}
	t, order := build(records(recs), len(recs), table.Dim, domain, p.Levels)
	clustered, err := table.Create(store, clusteredName)
	if err != nil {
		return nil, nil, err
	}
	a := clustered.NewAppender()
	defer a.Close()
	for leaf, ni := range t.LeafNodes {
		n := &t.Nodes[ni]
		for _, i := range order[n.RowLo:n.RowHi] {
			rec := recs[i]
			rec.LeafID = uint32(leaf)
			if err := a.Append(&rec); err != nil {
				return nil, nil, err
			}
		}
	}
	return t, clustered, nil
}

// BuildFromPoints constructs a tree over in-memory points without a
// backing table (used by substrate consumers like the Voronoi seed
// locator). Row ranges index into the returned permutation: row r
// corresponds to pts[perm[r]].
func BuildFromPoints(pts []vec.Point, domain vec.Box, levels int) (*Tree, []int, error) {
	if len(pts) == 0 {
		return nil, nil, fmt.Errorf("kdtree: no points")
	}
	t, perm := build(points(pts), len(pts), len(pts[0]), domain, levels)
	return t, perm, nil
}

// items is what a build partitions: each item's coordinate on an axis,
// and a total order of the items along an axis.
type items interface {
	coord(i, axis int) float64
	compare(a, b, axis int) int
}

// records are table rows under the build's total order.
type records []table.Record

func (r records) coord(i, axis int) float64 { return float64(r[i].Mags[axis]) }

// compare orders two rows by their magnitude on axis, then ObjID, then
// the encoded bytes of every other column. LeafID is left out — the
// build assigns it — so rows that tie are interchangeable in what the
// build writes.
func (r records) compare(a, b, axis int) int {
	if c := cmp.Or(cmp.Compare(r[a].Mags[axis], r[b].Mags[axis]), cmp.Compare(r[a].ObjID, r[b].ObjID)); c != 0 {
		return c
	}
	x, y := r[a], r[b]
	x.LeafID, y.LeafID = 0, 0
	var ex, ey [table.RecordSize]byte
	x.Encode(ex[:])
	y.Encode(ey[:])
	return bytes.Compare(ex[:], ey[:])
}

// points are in-memory points; a point has no identity beyond its
// position in the slice, which breaks coordinate ties.
type points []vec.Point

func (p points) coord(i, axis int) float64 { return p[i][axis] }

func (p points) compare(a, b, axis int) int {
	return cmp.Or(cmp.Compare(p[a][axis], p[b][axis]), cmp.Compare(a, b))
}

// build partitions items [0, n) into a balanced tree of the given
// depth (0: the √N rule) over domain and returns it with the clustered
// order: the tree's row r is item order[r].
func build(it items, n, dim int, domain vec.Box, levels int) (*Tree, []int) {
	if levels <= 0 {
		levels = ChooseLevels(uint64(n))
	}
	for levels > 0 && 1<<uint(levels) > n {
		levels-- // never more leaves than items
	}
	t := &Tree{Dim: dim, Levels: levels, NumRows: uint64(n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	// Recursive build over index slices. Node row ranges refer to
	// positions in the final clustered order, which is exactly the
	// left-to-right order of order after all partitions.
	var post int32
	var grow func(span []int, cell vec.Box, level int, rowLo table.RowID) int32
	grow = func(span []int, cell vec.Box, level int, rowLo table.RowID) int32 {
		self := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, Node{Left: -1, Right: -1, Leaf: -1})

		bounds := vec.EmptyBox(dim)
		for _, i := range span {
			for d := 0; d < dim; d++ {
				v := it.coord(i, d)
				if v < bounds.Min[d] {
					bounds.Min[d] = v
				}
				if v > bounds.Max[d] {
					bounds.Max[d] = v
				}
			}
		}
		n := Node{Left: -1, Right: -1, Leaf: -1, Cell: cell, Bounds: bounds,
			RowLo: rowLo, RowHi: rowLo + table.RowID(len(span)), SubtreeSize: 1}

		// Split axis: the widest extent of the node's points, the
		// adaptive choice that follows the data's structure.
		axis := bounds.LongestAxis()
		if level == levels {
			// A leaf's rows run along that same axis, so each page of a
			// leaf spans a short stretch of its widest magnitude.
			slices.SortFunc(span, func(a, b int) int { return it.compare(a, b, axis) })
			n.Leaf = int32(len(t.LeafNodes))
			t.LeafNodes = append(t.LeafNodes, self)
		} else {
			if bounds.Side(axis) == 0 {
				axis = level % dim // degenerate extents: cycle by level
			}
			mid := len(span) / 2
			selectNth(span, mid, func(a, b int) bool { return it.compare(a, b, axis) < 0 })
			// Cut halfway between the two sides so descent (< cut left,
			// >= cut right) routes every build point to its own leaf, up
			// to exact duplicates at the median.
			maxLeft := it.coord(span[0], axis)
			for _, i := range span[:mid] {
				if v := it.coord(i, axis); v > maxLeft {
					maxLeft = v
				}
			}
			cut := (maxLeft + it.coord(span[mid], axis)) / 2
			loCell, hiCell := cell.Split(axis, cut)
			n.Axis, n.Cut = int32(axis), cut
			n.Left = grow(span[:mid], loCell, level+1, rowLo)
			n.Right = grow(span[mid:], hiCell, level+1, rowLo+table.RowID(mid))
			n.SubtreeSize += t.Nodes[n.Left].SubtreeSize + t.Nodes[n.Right].SubtreeSize
		}
		n.PostOrder = post
		post++
		t.Nodes[self] = n
		return self
	}
	grow(order, domain.Clone(), 0, 0)
	return t, order
}

// selectNth partially sorts span so span[n] holds the element that
// would be at position n in sorted order, with smaller elements
// before it (Hoare quickselect with median-of-three pivots and an
// insertion-sort fallback on small spans).
func selectNth(span []int, n int, less func(a, b int) bool) {
	lo, hi := 0, len(span)-1
	for hi > lo {
		if hi-lo < 12 {
			insertionSort(span[lo:hi+1], less)
			return
		}
		p := medianOfThree(span, lo, (lo+hi)/2, hi, less)
		span[p], span[hi] = span[hi], span[p]
		pivot := span[hi]
		store := lo
		for i := lo; i < hi; i++ {
			if less(span[i], pivot) {
				span[i], span[store] = span[store], span[i]
				store++
			}
		}
		span[store], span[hi] = span[hi], span[store]
		switch {
		case store == n:
			return
		case store < n:
			lo = store + 1
		default:
			hi = store - 1
		}
	}
}

func insertionSort(s []int, less func(a, b int) bool) {
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
}

func medianOfThree(span []int, a, b, c int, less func(x, y int) bool) int {
	va, vb, vc := span[a], span[b], span[c]
	switch {
	case less(va, vb):
		switch {
		case less(vb, vc):
			return b
		case less(va, vc):
			return c
		default:
			return a
		}
	default:
		switch {
		case less(va, vc):
			return a
		case less(vb, vc):
			return c
		default:
			return b
		}
	}
}
