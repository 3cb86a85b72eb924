package sky

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/table"
)

// CellIndex is the §5.2 sky cut's index: a uniform ra×dec grid over a
// table's full pages that lists, for every cell, the rows whose
// position falls in it. The catalog is clustered on colour (the
// kd-tree's leaves), so each page's rows are spread over the whole sky
// and a per-page ra/dec box would prove almost nothing; the grid
// answers which rows can lie inside a box without touching a page.
//
// It covers the rows of the pages that were full when it was built.
// Published rows never change in place (minor compactions only append),
// so the index stays true for the life of the table whatever is
// appended after it; the rows past its coverage — the partial last
// page and every later run — are the scan's unindexed tail.
type CellIndex struct {
	rows      int // covered rows [0, rows), whole pages
	nRa, nDec int
	raScale   float64  // cells per degree of ra
	decScale  float64  // cells per degree of dec
	start     []uint32 // cell c's rows are id[start[c]:start[c+1]]
	id        []uint32 // covered RowIDs grouped by cell
}

// rowsPerCell sizes the grid: about this many covered rows per cell on
// average, so a box's boundary cells add few candidates beyond its own.
const rowsPerCell = 16

// BuildCellIndex indexes every full page of tb: one pass over the ra and
// dec columns, then a counting sort of the rows by cell. Cells number
// dec-major (dec·nRa + ra) with twice as many ra cells as dec cells, so
// cells are square in degrees; the cell count follows the row count and
// is not a knob.
func BuildCellIndex(tb *table.Table) (*CellIndex, error) {
	rows := int(tb.NumRows()/table.RecordsPerPage) * table.RecordsPerPage
	if rows > math.MaxUint32 {
		return nil, fmt.Errorf("sky: cell index over %d rows exceeds its 32-bit row space", rows)
	}
	nDec := max(1, int(math.Sqrt(float64(rows)/(2*rowsPerCell))))
	ix := &CellIndex{
		rows:     rows,
		nRa:      2 * nDec,
		nDec:     nDec,
		raScale:  float64(2*nDec) / 360,
		decScale: float64(nDec) / 180,
		start:    make([]uint32, 2*nDec*nDec+1),
		id:       make([]uint32, rows),
	}
	cells := make([]uint32, rows)
	it := tb.IterRange(nil, 0, table.RowID(rows), table.ColRa|table.ColDec)
	defer it.Close()
	var rec table.Record
	for i := 0; it.Next(&rec); i++ {
		c := ix.cell(float64(rec.Ra), float64(rec.Dec))
		cells[i] = uint32(c)
		ix.start[c+1]++
	}
	if err := it.Err(); err != nil {
		return nil, fmt.Errorf("sky: build cell index: %w", err)
	}
	for c := 1; c < len(ix.start); c++ {
		ix.start[c] += ix.start[c-1]
	}
	next := slices.Clone(ix.start[:len(ix.start)-1])
	for row, c := range cells {
		ix.id[next[c]] = uint32(row)
		next[c]++
	}
	return ix, nil
}

// Rows returns the covered rows that can lie inside the box: every row
// of an overlapping cell. A row inside the box lies in an overlapping
// cell, because the cell of a coordinate is monotone in it (cellOf) and
// computed from the same float64 values the exact test compares, so the
// set never misses a row of the answer; it only over-approximates by
// the boundary cells' other rows.
func (ix *CellIndex) Rows(box *table.SkyBoxPred) *table.RowSet {
	set := table.NewRowSet(ix.rows)
	r0, r1 := cellOf(box.RaMin, 0, ix.raScale, ix.nRa), cellOf(box.RaMax, 0, ix.raScale, ix.nRa)
	d0, d1 := cellOf(box.DecMin, -90, ix.decScale, ix.nDec), cellOf(box.DecMax, -90, ix.decScale, ix.nDec)
	if r0 > r1 || d0 > d1 {
		return set // an inverted box holds no row
	}
	for d := d0; d <= d1; d++ {
		first := d * ix.nRa
		for _, row := range ix.id[ix.start[first+r0]:ix.start[first+r1+1]] {
			set.Add(int(row))
		}
	}
	return set
}

// cell returns the cell of one position.
func (ix *CellIndex) cell(ra, dec float64) int {
	return cellOf(dec, -90, ix.decScale, ix.nDec)*ix.nRa + cellOf(ra, 0, ix.raScale, ix.nRa)
}

// cellOf maps one coordinate to its cell along an axis of n cells
// starting at lo. It is monotone (non-decreasing) in x: the subtraction
// and the scaling by a positive constant round monotonically, and the
// clamps keep it so — values below the axis (and NaN, which no box
// contains) go to the first cell, values past it to the last.
func cellOf(x, lo, scale float64, n int) int {
	f := (x - lo) * scale
	switch {
	case !(f >= 0):
		return 0
	case f >= float64(n):
		return n - 1
	}
	return int(f)
}
