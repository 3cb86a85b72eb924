// Package table implements the reproduction's analog of the SDSS
// magnitude table: a heap file of fixed-width records on the page
// store, plus the auxiliary index columns the paper adds to it
// (RandomID / Layer / ContainedBy for the layered grid of §3.1, the
// kd-tree leaf id whose clustered ordering makes leaf ranges
// contiguous in §3.2, and the Voronoi cell tag of §3.4).
package table

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/vec"
)

// Dim is the dimensionality of the magnitude space: the five SDSS
// color bands u, g, r, i, z.
const Dim = 5

// Class is the spectral type of an object. The paper's Figure 1
// colors points by this label; the classification experiments (§2.2,
// §4) try to recover it from colors alone.
type Class uint8

// Spectral classes. Outlier models the measurement/calibration
// artifacts the paper calls out in Figure 1.
const (
	Star Class = iota
	Galaxy
	Quasar
	Outlier
	NumClasses
)

// String returns the lowercase class name.
func (c Class) String() string {
	switch c {
	case Star:
		return "star"
	case Galaxy:
		return "galaxy"
	case Quasar:
		return "quasar"
	case Outlier:
		return "outlier"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ParseClass resolves a class name case-insensitively, the inverse of
// Class.String. The second return is false for unknown names.
func ParseClass(s string) (Class, bool) {
	for c := Star; c < NumClasses; c++ {
		if strings.EqualFold(s, c.String()) {
			return c, true
		}
	}
	return 0, false
}

// Record is one row of the magnitude table.
type Record struct {
	ObjID    int64        // unique object id
	Mags     [Dim]float32 // u, g, r, i, z magnitudes
	Ra, Dec  float32      // celestial coordinates (for the §5.2 sky view)
	Redshift float32      // spectroscopic redshift, valid when HasZ
	HasZ     bool         // true for the ~1% with measured spectra
	Class    Class        // ground-truth spectral type

	// Index columns maintained by the spatial indexes.
	RandomID    uint32 // §3.1: random permutation rank, 0-based
	Layer       uint16 // §3.1: grid layer, 1-based; 0 = unassigned
	ContainedBy uint32 // §3.1: grid cell code within the layer
	CellID      uint32 // §3.4: Voronoi cell tag (space-filling-curve order)
	LeafID      uint32 // §3.2: kd-tree leaf (left-to-right ordinal)
}

// Point returns the magnitudes as a float64 geometric point.
func (r *Record) Point() vec.Point {
	p := make(vec.Point, Dim)
	for i, v := range r.Mags {
		p[i] = float64(v)
	}
	return p
}

// SetPoint assigns the magnitudes from a float64 point.
func (r *Record) SetPoint(p vec.Point) {
	if len(p) != Dim {
		panic(fmt.Sprintf("table: point dim %d, want %d", len(p), Dim))
	}
	for i, v := range p {
		r.Mags[i] = float32(v)
	}
}

// RecordSize is the fixed on-disk footprint of a record in bytes.
// Layout (little endian):
//
//	 0  ObjID       int64
//	 8  Mags        [5]float32
//	28  Ra          float32
//	32  Dec         float32
//	36  Redshift    float32
//	40  Class       uint8
//	41  HasZ        uint8
//	42  Layer       uint16
//	44  RandomID    uint32
//	48  ContainedBy uint32
//	52  CellID      uint32
//	56  LeafID      uint32
//	60  (reserved)  4 bytes
const RecordSize = 64

// Encode serializes the record into buf, which must hold RecordSize
// bytes.
func (r *Record) Encode(buf []byte) {
	_ = buf[RecordSize-1]
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.ObjID))
	for i, m := range r.Mags {
		binary.LittleEndian.PutUint32(buf[8+4*i:], math.Float32bits(m))
	}
	binary.LittleEndian.PutUint32(buf[28:], math.Float32bits(r.Ra))
	binary.LittleEndian.PutUint32(buf[32:], math.Float32bits(r.Dec))
	binary.LittleEndian.PutUint32(buf[36:], math.Float32bits(r.Redshift))
	buf[40] = byte(r.Class)
	if r.HasZ {
		buf[41] = 1
	} else {
		buf[41] = 0
	}
	binary.LittleEndian.PutUint16(buf[42:], r.Layer)
	binary.LittleEndian.PutUint32(buf[44:], r.RandomID)
	binary.LittleEndian.PutUint32(buf[48:], r.ContainedBy)
	binary.LittleEndian.PutUint32(buf[52:], r.CellID)
	binary.LittleEndian.PutUint32(buf[56:], r.LeafID)
	binary.LittleEndian.PutUint32(buf[60:], 0)
}

// Decode deserializes the record from buf, which must hold
// RecordSize bytes.
func (r *Record) Decode(buf []byte) {
	_ = buf[RecordSize-1]
	r.ObjID = int64(binary.LittleEndian.Uint64(buf[0:]))
	for i := range r.Mags {
		r.Mags[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[8+4*i:]))
	}
	r.Ra = math.Float32frombits(binary.LittleEndian.Uint32(buf[28:]))
	r.Dec = math.Float32frombits(binary.LittleEndian.Uint32(buf[32:]))
	r.Redshift = math.Float32frombits(binary.LittleEndian.Uint32(buf[36:]))
	r.Class = Class(buf[40])
	r.HasZ = buf[41] != 0
	r.Layer = binary.LittleEndian.Uint16(buf[42:])
	r.RandomID = binary.LittleEndian.Uint32(buf[44:])
	r.ContainedBy = binary.LittleEndian.Uint32(buf[48:])
	r.CellID = binary.LittleEndian.Uint32(buf[52:])
	r.LeafID = binary.LittleEndian.Uint32(buf[56:])
}

// ColumnSet selects which record fields a partial decode
// materializes — the §3.5 blob trick, generalized, that projection
// pushdown rides on: a SELECT naming two columns decodes
// two fields per row, not thirteen.
type ColumnSet uint16

// Decodable column groups. Fields not named by the set are left
// zero. ColMags covers all five magnitudes: they are contiguous on
// disk and nearly always wanted together (predicate filters and
// ORDER BY expressions both need the full vector).
const (
	ColObjID ColumnSet = 1 << iota
	ColMags
	ColRa
	ColDec
	ColRedshift
	ColHasZ
	ColClass
	ColIndexCols

	// ColAll decodes every field, equivalently to Decode.
	ColAll = ColObjID | ColMags | ColRa | ColDec | ColRedshift | ColHasZ | ColClass | ColIndexCols
)

// Has reports whether every column of o is in s.
func (s ColumnSet) Has(o ColumnSet) bool { return s&o == o }

// DecodeCols deserializes only the selected columns from buf into r,
// zeroing the rest. With ColAll it is exactly Decode.
func (r *Record) DecodeCols(buf []byte, cols ColumnSet) {
	if cols == ColAll {
		r.Decode(buf)
		return
	}
	_ = buf[RecordSize-1]
	*r = Record{}
	if cols&ColObjID != 0 {
		r.ObjID = int64(binary.LittleEndian.Uint64(buf[0:]))
	}
	if cols&ColMags != 0 {
		for i := range r.Mags {
			r.Mags[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[8+4*i:]))
		}
	}
	if cols&ColRa != 0 {
		r.Ra = math.Float32frombits(binary.LittleEndian.Uint32(buf[28:]))
	}
	if cols&ColDec != 0 {
		r.Dec = math.Float32frombits(binary.LittleEndian.Uint32(buf[32:]))
	}
	if cols&ColRedshift != 0 {
		r.Redshift = math.Float32frombits(binary.LittleEndian.Uint32(buf[36:]))
	}
	if cols&ColClass != 0 {
		r.Class = Class(buf[40])
	}
	if cols&ColHasZ != 0 {
		r.HasZ = buf[41] != 0
	}
	if cols&ColIndexCols != 0 {
		r.Layer = binary.LittleEndian.Uint16(buf[42:])
		r.RandomID = binary.LittleEndian.Uint32(buf[44:])
		r.ContainedBy = binary.LittleEndian.Uint32(buf[48:])
		r.CellID = binary.LittleEndian.Uint32(buf[52:])
		r.LeafID = binary.LittleEndian.Uint32(buf[56:])
	}
}

// Project returns a copy of r holding only the selected columns,
// zeroing the rest — the in-memory analogue of DecodeCols, so rows
// served from the memtable project exactly like rows decoded from
// page bytes and the two sources stay byte-identical under any
// projection.
func (r *Record) Project(cols ColumnSet) Record {
	if cols == ColAll {
		return *r
	}
	var out Record
	if cols&ColObjID != 0 {
		out.ObjID = r.ObjID
	}
	if cols&ColMags != 0 {
		out.Mags = r.Mags
	}
	if cols&ColRa != 0 {
		out.Ra = r.Ra
	}
	if cols&ColDec != 0 {
		out.Dec = r.Dec
	}
	if cols&ColRedshift != 0 {
		out.Redshift = r.Redshift
	}
	if cols&ColClass != 0 {
		out.Class = r.Class
	}
	if cols&ColHasZ != 0 {
		out.HasZ = r.HasZ
	}
	if cols&ColIndexCols != 0 {
		out.Layer = r.Layer
		out.RandomID = r.RandomID
		out.ContainedBy = r.ContainedBy
		out.CellID = r.CellID
		out.LeafID = r.LeafID
	}
	return out
}
