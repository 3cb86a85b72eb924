package kdtree

import (
	"math/rand"
	"testing"

	"repro/internal/table"
	"repro/internal/vec"
)

// rangeRows counts the rows CollectRanges' ranges cover: what the
// index scan, pruning on tight bounds, reads.
func rangeRows(ranges []Range) int64 {
	var rows int64
	for _, r := range ranges {
		rows += int64(r.Hi - r.Lo)
	}
	return rows
}

// cellRows counts the rows of the leaves whose partition cell is not
// Outside q: what a walk pruning on partition cells would read.
func cellRows(tree *Tree, q vec.Polyhedron) int64 {
	var rows int64
	for _, ni := range tree.LeafNodes {
		if n := &tree.Nodes[ni]; q.ClassifyBox(n.Cell) != vec.Outside {
			rows += int64(n.RowHi - n.RowLo)
		}
	}
	return rows
}

// TestPruningStrategiesAgree: neither pruning strategy may lose a
// match — every row the brute-force filter finds lies in one of
// CollectRanges' ranges (tight bounds) and in a leaf whose partition
// cell is not Outside. The boxes are centered on rows, so they match.
func TestPruningStrategiesAgree(t *testing.T) {
	tree, tb := buildFixture(t, 4000, 0)
	rng := rand.New(rand.NewSource(21))
	matches := 0
	for iter := 0; iter < 10; iter++ {
		var rec table.Record
		tb.Get(table.RowID(rng.Intn(int(tb.NumRows()))), &rec)
		c := rec.Point()
		half := 0.5 + 2*rng.Float64()
		lo, hi := make(vec.Point, 5), make(vec.Point, 5)
		for d := 0; d < 5; d++ {
			lo[d], hi[d] = c[d]-half, c[d]+half
		}
		q := vec.BoxPolyhedron(vec.NewBox(lo, hi))
		ranges, _ := tree.CollectRanges([]vec.Polyhedron{q})
		inRange := make([]bool, tb.NumRows())
		for _, r := range ranges {
			for id := r.Lo; id < r.Hi; id++ {
				inRange[id] = true
			}
		}
		tb.Scan(func(id table.RowID, r *table.Record) bool {
			if !q.Contains(r.Point()) {
				return true
			}
			matches++
			if !inRange[id] {
				t.Fatalf("iter %d: match %d lies in no range", iter, id)
			}
			if q.ClassifyBox(tree.LeafBox(int(r.LeafID))) == vec.Outside {
				t.Fatalf("iter %d: match %d lies in leaf %d, whose cell is Outside", iter, id, r.LeafID)
			}
			return true
		})
	}
	if matches == 0 {
		t.Fatal("no query matched a row; the check compares nothing")
	}
}

// TestTightBoundsPruneMore: on clustered data, tight bounds must
// cover no more rows than partition cells, and typically far fewer —
// the ablation behind "the spatial partitioning must follow the
// structure of the data".
func TestTightBoundsPruneMore(t *testing.T) {
	tree, tb := buildFixture(t, 20000, 0)
	rng := rand.New(rand.NewSource(23))
	var tightRows, cellRowsSum int64
	for iter := 0; iter < 10; iter++ {
		var rec table.Record
		tb.Get(table.RowID(rng.Intn(int(tb.NumRows()))), &rec)
		c := rec.Point()
		lo, hi := make(vec.Point, 5), make(vec.Point, 5)
		for d := 0; d < 5; d++ {
			lo[d], hi[d] = c[d]-0.6, c[d]+0.6
		}
		q := vec.BoxPolyhedron(vec.NewBox(lo, hi))
		ranges, _ := tree.CollectRanges([]vec.Polyhedron{q})
		tightRows += rangeRows(ranges)
		cellRowsSum += cellRows(tree, q)
	}
	if tightRows > cellRowsSum {
		t.Errorf("tight bounds cover %d rows, cells %d — pruning regressed", tightRows, cellRowsSum)
	}
	if float64(tightRows) > 0.9*float64(cellRowsSum) {
		t.Logf("note: tight bounds only marginally better (%d vs %d)", tightRows, cellRowsSum)
	}
}
