package kdtree

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"

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
	// box.
	Domain vec.Box
}

// Build constructs a balanced kd-tree over the rows of tb and writes
// them clustered by leaf to a new table clusteredName in tb's store:
// what BuildRecords over the table's rows builds and writes.
//
// It reads the table twice and never holds the keys and the rows at
// once: the first read fills the split keys, which the build
// partitions, reading back from the table only the rare rows that tie
// on magnitude and ObjID; the second reads the rows for the clustered
// copy. Both reads are scan-class, so an offline build does not flush
// a serving pool's hot set.
func Build(tb *table.Table, clusteredName string, p BuildParams) (*Tree, *table.Table, error) {
	tb = tb.Snapshot().ScanClassed()
	n := int(tb.NumRows())
	if err := checkBuild(n, p); err != nil {
		return nil, nil, err
	}
	k := recordKeys(n)
	err := tb.Scan(func(id table.RowID, r *table.Record) bool {
		setRecordKey(&k, int(id), r)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	var tailErr error
	k.tail = func(a, b int32) int {
		var x, y table.Record
		if err := cmp.Or(tb.Get(table.RowID(a), &x), tb.Get(table.RowID(b), &y)); err != nil {
			tailErr = cmp.Or(tailErr, err)
		}
		return recordTail(x, y)
	}
	t, order := build(k, p.Domain, p.Levels)
	if tailErr != nil {
		return nil, nil, tailErr
	}
	recs := make([]table.Record, 0, n)
	err = tb.Scan(func(_ table.RowID, r *table.Record) bool {
		recs = append(recs, *r)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	clustered, err := writeClustered(tb.Store(), clusteredName, t, order, recs)
	return t, clustered, err
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
	if err := checkBuild(len(recs), p); err != nil {
		return nil, nil, err
	}
	k := recordKeys(len(recs))
	for i := range recs {
		setRecordKey(&k, i, &recs[i])
	}
	k.tail = func(a, b int32) int { return recordTail(recs[a], recs[b]) }
	t, order := build(k, p.Domain, p.Levels)
	clustered, err := writeClustered(store, clusteredName, t, order, recs)
	return t, clustered, err
}

func checkBuild(n int, p BuildParams) error {
	if n == 0 {
		return fmt.Errorf("kdtree: empty table")
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("kdtree: %d rows exceed the build's int32 row order", n)
	}
	if p.Domain.Dim() != table.Dim {
		return fmt.Errorf("kdtree: domain dim %d != point dim %d", p.Domain.Dim(), table.Dim)
	}
	return nil
}

// writeClustered writes recs to a new table name in the tree's
// clustered order, each row's leaf in its LeafID column.
func writeClustered(store *pagestore.Store, name string, t *Tree, order []int32, recs []table.Record) (*table.Table, error) {
	clustered, err := table.Create(store, name)
	if err != nil {
		return nil, err
	}
	a := clustered.NewAppender()
	defer a.Close()
	// Rows are gathered a batch at a time: the tight copy loop keeps
	// many of its scattered reads in flight at once.
	var batch [64]table.Record
	for leaf, ni := range t.LeafNodes {
		n := &t.Nodes[ni]
		for rows := order[n.RowLo:n.RowHi]; len(rows) > 0; {
			m := min(len(rows), len(batch))
			for j, i := range rows[:m] {
				batch[j] = recs[i]
			}
			for j := range batch[:m] {
				batch[j].LeafID = uint32(leaf)
				if err := a.Append(&batch[j]); err != nil {
					return nil, err
				}
			}
			rows = rows[m:]
		}
	}
	return clustered, nil
}

// BuildFromPoints constructs a tree over in-memory points without a
// backing table (used by substrate consumers like the Voronoi seed
// locator). Row ranges index into the returned permutation: row r
// corresponds to pts[perm[r]].
func BuildFromPoints(pts []vec.Point, domain vec.Box, levels int) (*Tree, []int32, error) {
	if len(pts) == 0 {
		return nil, nil, fmt.Errorf("kdtree: no points")
	}
	if len(pts) > math.MaxInt32 {
		return nil, nil, fmt.Errorf("kdtree: %d points exceed the build's int32 row order", len(pts))
	}
	// A point has no identity beyond its position, which breaks ties.
	k := keys[float64]{cols: make([][]float64, len(pts[0])), ids: make([]int64, len(pts))}
	for d := range k.cols {
		col := make([]float64, len(pts))
		for i, p := range pts {
			col[i] = p[d]
		}
		k.cols[d] = col
	}
	for i := range k.ids {
		k.ids[i] = int64(i)
	}
	t, perm := build(k, domain, levels)
	return t, perm, nil
}

// keys are what a build partitions, extracted once into compact
// columns. Position i holds one item: cols[d][i] is its coordinate on
// axis d, ids[i] its identity and pos[i] the item itself (its input
// index), and the partitions move all three together. Items order
// along an axis by coordinate, then id, then — only when both tie — by
// tail, which takes items; a nil tail means ids are unique. A row's
// keys are 28 B and its 4-B item slot, not the 64-B record.
type keys[F float32 | float64] struct {
	cols [][]F
	ids  []int64
	pos  []int32
	tail func(a, b int32) int
}

// recordKeys allocates n rows' split keys: the magnitudes and ObjID,
// filled by setRecordKey.
func recordKeys(n int) keys[float32] {
	k := keys[float32]{cols: make([][]float32, table.Dim), ids: make([]int64, n)}
	for d := range k.cols {
		k.cols[d] = make([]float32, n)
	}
	return k
}

func setRecordKey(k *keys[float32], i int, r *table.Record) {
	for d, m := range r.Mags {
		k.cols[d][i] = m
	}
	k.ids[i] = r.ObjID
}

// recordTail orders two rows that tie on the split magnitude and ObjID
// by the encoded bytes of every other column. LeafID is left out — the
// build assigns it — so rows that tie are interchangeable in what the
// build writes.
func recordTail(x, y table.Record) int {
	x.LeafID, y.LeafID = 0, 0
	var ex, ey [table.RecordSize]byte
	x.Encode(ex[:])
	y.Encode(ey[:])
	return bytes.Compare(ex[:], ey[:])
}

// compare orders the items at positions i and j along the axis whose
// column is col.
func (k *keys[F]) compare(col []F, i, j int) int {
	if c := cmp.Compare(col[i], col[j]); c != 0 {
		return c
	}
	if c := cmp.Compare(k.ids[i], k.ids[j]); c != 0 || k.tail == nil {
		return c
	}
	return k.tail(k.pos[i], k.pos[j])
}

// swap exchanges the items at positions i and j in every column.
func (k *keys[F]) swap(i, j int) {
	for _, col := range k.cols {
		col[i], col[j] = col[j], col[i]
	}
	k.ids[i], k.ids[j] = k.ids[j], k.ids[i]
	k.pos[i], k.pos[j] = k.pos[j], k.pos[i]
}

// bounds returns the tight bounding box of the items at positions
// [lo, hi).
func (k *keys[F]) bounds(lo, hi int) vec.Box {
	b := vec.EmptyBox(len(k.cols))
	for d, col := range k.cols {
		mn, mx := b.Min[d], b.Max[d]
		for _, v := range col[lo:hi] {
			f := float64(v)
			if f < mn {
				mn = f
			}
			if f > mx {
				mx = f
			}
		}
		b.Min[d], b.Max[d] = mn, mx
	}
	return b
}

// build partitions the items of k into a balanced tree of the given
// depth (0: the √N rule) over domain, widened to the items' bounding
// box, and returns it with the clustered order: the tree's row r is
// item order[r].
//
// The partitions move the items' keys with them, so every node's items
// sit at one contiguous range of positions in every column: node
// bounds and the median selection read the columns in order.
func build[F float32 | float64](k keys[F], domain vec.Box, levels int) (*Tree, []int32) {
	n, dim := len(k.ids), len(k.cols)
	if levels <= 0 {
		levels = ChooseLevels(uint64(n))
	}
	for levels > 0 && 1<<uint(levels) > n {
		levels-- // never more leaves than items
	}
	t := &Tree{Dim: dim, Levels: levels, NumRows: uint64(n)}
	k.pos = make([]int32, n)
	for i := range k.pos {
		k.pos[i] = int32(i)
	}
	domain = domain.Clone()
	domain.ExtendBox(k.bounds(0, n))

	// Node row ranges are position ranges, which are rows of the
	// clustered order once every partition is done. A leaf's sort
	// reorders only its positions' items, through idx.
	var idx, leafPos []int32
	var post int32
	var grow func(lo, hi int, cell vec.Box, level int) int32
	grow = func(lo, hi int, cell vec.Box, level int) int32 {
		self := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, Node{Left: -1, Right: -1, Leaf: -1})

		bounds := k.bounds(lo, hi)
		n := Node{Left: -1, Right: -1, Leaf: -1, Cell: cell, Bounds: bounds,
			RowLo: table.RowID(lo), RowHi: table.RowID(hi), SubtreeSize: 1}

		// Split axis: the widest extent of the node's points, the
		// adaptive choice that follows the data's structure.
		axis := bounds.LongestAxis()
		if level == levels {
			// A leaf's rows run along that same axis, so each page of a
			// leaf spans a short stretch of its widest magnitude.
			col := k.cols[axis]
			idx, leafPos = idx[:0], leafPos[:0]
			for i := lo; i < hi; i++ {
				idx = append(idx, int32(i))
			}
			slices.SortFunc(idx, func(a, b int32) int { return k.compare(col, int(a), int(b)) })
			for _, i := range idx {
				leafPos = append(leafPos, k.pos[i])
			}
			copy(k.pos[lo:hi], leafPos)
			n.Leaf = int32(len(t.LeafNodes))
			t.LeafNodes = append(t.LeafNodes, self)
		} else {
			if bounds.Side(axis) == 0 {
				axis = level % dim // degenerate extents: cycle by level
			}
			col := k.cols[axis]
			mid := lo + (hi-lo)/2
			k.selectNth(lo, hi, mid, col)
			// Cut halfway between the two sides so descent (< cut left,
			// >= cut right) routes every build point to its own leaf, up
			// to exact duplicates at the median.
			maxLeft := col[lo]
			for _, v := range col[lo:mid] {
				if v > maxLeft {
					maxLeft = v
				}
			}
			cut := (float64(maxLeft) + float64(col[mid])) / 2
			loCell, hiCell := cell.Split(axis, cut)
			n.Axis, n.Cut = int32(axis), cut
			n.Left = grow(lo, mid, loCell, level+1)
			n.Right = grow(mid, hi, hiCell, level+1)
			n.SubtreeSize += t.Nodes[n.Left].SubtreeSize + t.Nodes[n.Right].SubtreeSize
		}
		n.PostOrder = post
		post++
		t.Nodes[self] = n
		return self
	}
	grow(0, n, domain, 0)
	return t, k.pos
}

// selectNth partially orders positions [lo, hi) along col so position
// nth holds the item that would be there in sorted order, with smaller
// items before it (quickselect with median-of-three pivots, Hoare
// partitions and an insertion sort on short ranges).
func (k *keys[F]) selectNth(lo, hi, nth int, col []F) {
	hi-- // inclusive from here on
	for hi > lo {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && k.compare(col, j, j-1) < 0; j-- {
					k.swap(j, j-1)
				}
			}
			return
		}
		// Hoare partition around the pivot, parked at hi: it moves each
		// misplaced pair once, and every swap moves a row of keys.
		k.swap(k.medianOfThree(lo, (lo+hi)/2, hi, col), hi)
		i, j := lo, hi-1
		for {
			for k.compare(col, i, hi) < 0 {
				i++
			}
			for j > lo && k.compare(col, hi, j) < 0 {
				j--
			}
			if i >= j {
				break
			}
			k.swap(i, j)
			i++
			j--
		}
		k.swap(i, hi)
		store := i
		switch {
		case store == nth:
			return
		case store < nth:
			lo = store + 1
		default:
			hi = store - 1
		}
	}
}

func (k *keys[F]) medianOfThree(a, b, c int, col []F) int {
	less := func(x, y int) bool { return k.compare(col, x, y) < 0 }
	switch {
	case less(a, b):
		switch {
		case less(b, c):
			return b
		case less(a, c):
			return c
		default:
			return a
		}
	default:
		switch {
		case less(a, c):
			return a
		case less(b, c):
			return c
		default:
			return b
		}
	}
}
