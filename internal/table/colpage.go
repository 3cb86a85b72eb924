package table

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/pagestore"
)

// Columnar (PAX-style) page layout. A page holds one mini-column per
// record field: all ObjIDs contiguously, then the five magnitude
// strips as float64, then the narrow identity and index columns. The
// row-major layout this replaces decoded 64 interleaved bytes per row
// even when a predicate needed one column; here a scan touches only
// the strips it asks for, and a linear predicate over the magnitudes
// runs as tight per-strip accumulation loops over contiguous float64
// slices — the §3.5 "binary blob" trick applied per column instead of
// per row.
//
// Page layout (little endian), capacity C = RecordsPerPage rows:
//
//	 0  magic      "COLP" (4 bytes)
//	 4  version    uint16 (colPageVersion)
//	 6  rows       uint16 (rows stored on this page, <= C)
//	 8  reserved   8 bytes, zero
//	16  ObjID      C × int64
//	      Mags     Dim strips of C × float64 (u, g, r, i, z)
//	      Ra       C × float32
//	      Dec      C × float32
//	      Redshift C × float32
//	      Class    C × uint8
//	      HasZ     C × uint8
//	      Layer    C × uint16
//	      RandomID C × uint32
//	      ContainedBy C × uint32
//	      CellID   C × uint32
//	      LeafID   C × uint32
//
// Magnitudes are stored widened to float64: the conversion from the
// record's float32 is exact, and predicate evaluation reads the strip
// without any per-row conversion.

const (
	colPageMagic   = 0x504C4F43 // "COLP" read little-endian
	colPageVersion = 2
	colHeaderSize  = 16

	// colRowBytes is the per-row footprint across all strips:
	// 8 (ObjID) + Dim×8 (mags) + 3×4 (ra/dec/redshift) + 1 + 1
	// (class/hasZ) + 2 (layer) + 4×4 (index columns).
	colRowBytes = 8 + Dim*8 + 12 + 2 + 2 + 16
)

// RecordsPerPage is the page capacity in rows under the columnar
// layout: how many rows' strips fit after the 16-byte header.
const RecordsPerPage = (pagestore.PageSize - colHeaderSize) / colRowBytes

// Strip base offsets within a page.
const (
	objStrip      = colHeaderSize
	magStrip      = objStrip + 8*RecordsPerPage // Dim consecutive float64 strips
	raStrip       = magStrip + Dim*8*RecordsPerPage
	decStrip      = raStrip + 4*RecordsPerPage
	redshiftStrip = decStrip + 4*RecordsPerPage
	classStrip    = redshiftStrip + 4*RecordsPerPage
	hasZStrip     = classStrip + RecordsPerPage
	layerStrip    = hasZStrip + RecordsPerPage
	randomStrip   = layerStrip + 2*RecordsPerPage
	containStrip  = randomStrip + 4*RecordsPerPage
	cellStrip     = containStrip + 4*RecordsPerPage
	leafStrip     = cellStrip + 4*RecordsPerPage
	colPageEnd    = leafStrip + 4*RecordsPerPage
)

// magStripOff returns the base offset of one magnitude axis' strip.
func magStripOff(axis int) int { return magStrip + axis*8*RecordsPerPage }

// setColPageMeta stamps the full page header: magic, version, row
// count. Written only when a page is created — before any of its rows
// can be visible to a concurrent reader — so the magic/version bytes
// are immutable for the page's lifetime afterwards.
func setColPageMeta(data []byte, rows int) {
	binary.LittleEndian.PutUint32(data[0:], colPageMagic)
	binary.LittleEndian.PutUint16(data[4:], colPageVersion)
	binary.LittleEndian.PutUint16(data[6:], uint16(rows))
}

// setColPageCount updates the row count alone. Appends into an
// already-created page go through this: the count bytes (offset 6..7)
// are disjoint from the magic/version bytes concurrent readers
// validate, and readers never consult the count itself — they derive
// per-page row counts from their snapshot bound (pageRowCount) — so
// online ingest appends race with no reader access.
func setColPageCount(data []byte, rows int) {
	binary.LittleEndian.PutUint16(data[6:], uint16(rows))
}

// checkColPage validates the immutable page header bytes (magic and
// version) without reading the row count — the reader-side check,
// safe against a concurrent appender.
func checkColPage(data []byte) error {
	if binary.LittleEndian.Uint32(data[0:]) != colPageMagic {
		return fmt.Errorf("page is not columnar format v%d (no COLP header; a pre-columnar row-format v1 table file cannot be opened by this binary — rebuild the data directory)", colPageVersion)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != colPageVersion {
		return fmt.Errorf("columnar page version %d, this binary reads version %d", v, colPageVersion)
	}
	return nil
}

// pageRowCount returns how many of a snapshot's rows land on page pg:
// the reader-side replacement for the page header's count, derived
// from the visible bound so a page the ingest path is still filling
// reports only the published prefix.
func pageRowCount(rows, pg uint64) int {
	start := pg * RecordsPerPage
	if rows <= start {
		return 0
	}
	n := rows - start
	if n > RecordsPerPage {
		n = RecordsPerPage
	}
	return int(n)
}

// colPageRows validates the page header and returns the row count.
// A page without the columnar magic is most likely a row-format (v1)
// table file — the mismatch is reported, never silently misread.
func colPageRows(data []byte) (int, error) {
	if binary.LittleEndian.Uint32(data[0:]) != colPageMagic {
		return 0, fmt.Errorf("page is not columnar format v%d (no COLP header; a pre-columnar row-format v1 table file cannot be opened by this binary — rebuild the data directory)", colPageVersion)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != colPageVersion {
		return 0, fmt.Errorf("columnar page version %d, this binary reads version %d", v, colPageVersion)
	}
	n := int(binary.LittleEndian.Uint16(data[6:]))
	if n > RecordsPerPage {
		return 0, fmt.Errorf("columnar page claims %d rows, capacity is %d (corrupt header)", n, RecordsPerPage)
	}
	return n, nil
}

// encodeRecordAt writes one record into its strip slots.
func encodeRecordAt(data []byte, slot int, r *Record) {
	binary.LittleEndian.PutUint64(data[objStrip+8*slot:], uint64(r.ObjID))
	for i, m := range r.Mags {
		binary.LittleEndian.PutUint64(data[magStripOff(i)+8*slot:], math.Float64bits(float64(m)))
	}
	binary.LittleEndian.PutUint32(data[raStrip+4*slot:], math.Float32bits(r.Ra))
	binary.LittleEndian.PutUint32(data[decStrip+4*slot:], math.Float32bits(r.Dec))
	binary.LittleEndian.PutUint32(data[redshiftStrip+4*slot:], math.Float32bits(r.Redshift))
	data[classStrip+slot] = byte(r.Class)
	if r.HasZ {
		data[hasZStrip+slot] = 1
	} else {
		data[hasZStrip+slot] = 0
	}
	binary.LittleEndian.PutUint16(data[layerStrip+2*slot:], r.Layer)
	binary.LittleEndian.PutUint32(data[randomStrip+4*slot:], r.RandomID)
	binary.LittleEndian.PutUint32(data[containStrip+4*slot:], r.ContainedBy)
	binary.LittleEndian.PutUint32(data[cellStrip+4*slot:], r.CellID)
	binary.LittleEndian.PutUint32(data[leafStrip+4*slot:], r.LeafID)
}

// decodeRecordColsAt reads the selected columns of one slot into r,
// zeroing the rest — the columnar counterpart of Record.DecodeCols.
func decodeRecordColsAt(data []byte, slot int, cols ColumnSet, r *Record) {
	*r = Record{}
	if cols&ColObjID != 0 {
		r.ObjID = int64(binary.LittleEndian.Uint64(data[objStrip+8*slot:]))
	}
	if cols&ColMags != 0 {
		for i := range r.Mags {
			r.Mags[i] = float32(math.Float64frombits(binary.LittleEndian.Uint64(data[magStripOff(i)+8*slot:])))
		}
	}
	if cols&ColRa != 0 {
		r.Ra = math.Float32frombits(binary.LittleEndian.Uint32(data[raStrip+4*slot:]))
	}
	if cols&ColDec != 0 {
		r.Dec = math.Float32frombits(binary.LittleEndian.Uint32(data[decStrip+4*slot:]))
	}
	if cols&ColRedshift != 0 {
		r.Redshift = math.Float32frombits(binary.LittleEndian.Uint32(data[redshiftStrip+4*slot:]))
	}
	if cols&ColClass != 0 {
		r.Class = Class(data[classStrip+slot])
	}
	if cols&ColHasZ != 0 {
		r.HasZ = data[hasZStrip+slot] != 0
	}
	if cols&ColIndexCols != 0 {
		r.Layer = binary.LittleEndian.Uint16(data[layerStrip+2*slot:])
		r.RandomID = binary.LittleEndian.Uint32(data[randomStrip+4*slot:])
		r.ContainedBy = binary.LittleEndian.Uint32(data[containStrip+4*slot:])
		r.CellID = binary.LittleEndian.Uint32(data[cellStrip+4*slot:])
		r.LeafID = binary.LittleEndian.Uint32(data[leafStrip+4*slot:])
	}
}

// decodeMagsAt gathers the five magnitudes of one slot — the hot path
// of the callback mag scans.
func decodeMagsAt(data []byte, slot int, dst *[Dim]float64) {
	for i := 0; i < Dim; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[magStripOff(i)+8*slot:]))
	}
}

// decodeSkyAt reads one slot's sky coordinates (ra, dec) — the
// spatial counterpart of decodeMagsAt, used by the sky-box filter.
func decodeSkyAt(data []byte, slot int) (ra, dec float64) {
	ra = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[raStrip+4*slot:])))
	dec = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[decStrip+4*slot:])))
	return ra, dec
}

// decodeMagStrip copies one axis' strip for slots [lo, lo+len(dst))
// into dst as a contiguous float64 slice — what the strip predicate loop
// iterates.
func decodeMagStrip(data []byte, axis, lo int, dst []float64) {
	base := magStripOff(axis) + 8*lo
	for j := range dst {
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[base+8*j:]))
	}
}
