package table

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/vec"
)

// Zone maps: one min/max box over the five magnitudes per page,
// maintained at append time. A linear predicate can classify a page
// against its zone exactly like the kd-tree classifies a leaf's tight
// bounds (Figure 4's three-way verdict): pages whose zone lies
// entirely outside the query are skipped without being read, pages
// entirely inside are emitted without a per-row test, and only
// partially overlapped pages run the strip filter. On a table
// clustered in color space (the kd-leaf ordering) zones are tight and
// most pages of a selective cut fall in the first bucket.

// PageZone is the per-page bounding box over the magnitude columns.
type PageZone struct {
	Min, Max [Dim]float64
}

// widen grows the zone to cover one record's magnitudes.
func (z *PageZone) widen(r *Record) {
	for i, v := range r.Mags {
		f := float64(v)
		if f < z.Min[i] {
			z.Min[i] = f
		}
		if f > z.Max[i] {
			z.Max[i] = f
		}
	}
}

// emptyZone is the identity under widen.
func emptyZone() PageZone {
	var z PageZone
	for i := range z.Min {
		z.Min[i] = math.Inf(1)
		z.Max[i] = math.Inf(-1)
	}
	return z
}

// ZoneMaps holds a table's per-page zones. It is maintained by the
// Appender (widened, never shrunk, as rows are appended), shared by
// all Scoped/ScanClassed views of the table, and persisted as a
// paged sidecar by the engine catalog. An RWMutex makes concurrent
// widening by the ingest compactor safe against serving readers —
// and widening is always sound for them: a wider zone can only turn
// an exact verdict into Partial, never fabricate Inside/Outside, so a
// snapshot reader consulting a zone that already covers unpublished
// rows still prunes correctly.
type ZoneMaps struct {
	mu    sync.RWMutex
	zones []PageZone
}

// NewZoneMaps returns an empty zone set (a freshly created table).
func NewZoneMaps() *ZoneMaps { return &ZoneMaps{} }

// ZoneMapsFrom adopts persisted zones (the sidecar load path).
func ZoneMapsFrom(zones []PageZone) *ZoneMaps {
	return &ZoneMaps{zones: zones}
}

// NumPages returns how many pages have zones.
func (z *ZoneMaps) NumPages() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.zones)
}

// Page returns the zone of one page.
func (z *ZoneMaps) Page(pg int) (PageZone, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if pg < 0 || pg >= len(z.zones) {
		return PageZone{}, false
	}
	return z.zones[pg], true
}

// Snapshot copies the zones for persistence.
func (z *ZoneMaps) Snapshot() []PageZone {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]PageZone, len(z.zones))
	copy(out, z.zones)
	return out
}

// widen covers one appended or updated row, creating the page's zone
// on first touch.
func (z *ZoneMaps) widen(pg int, r *Record) {
	z.mu.Lock()
	for len(z.zones) <= pg {
		z.zones = append(z.zones, emptyZone())
	}
	z.zones[pg].widen(r)
	z.mu.Unlock()
}

// Validate checks the zone set against a table's page count: exactly
// one finite, ordered zone per page. Run on every sidecar load so a
// stale or truncated sidecar fails loudly instead of silently
// mispruning.
func (z *ZoneMaps) Validate(pages int) error {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if len(z.zones) != pages {
		return fmt.Errorf("zone maps cover %d pages, table has %d", len(z.zones), pages)
	}
	for pg := range z.zones {
		for i := 0; i < Dim; i++ {
			lo, hi := z.zones[pg].Min[i], z.zones[pg].Max[i]
			if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || lo > hi {
				return fmt.Errorf("zone maps: page %d axis %d has invalid bounds [%g, %g]", pg, i, lo, hi)
			}
		}
	}
	return nil
}

// PagePred is a WHERE lowered to the storage layer, ready for page
// classification and strip evaluation: the convex clauses of its DNF,
// matching a row that satisfies any of them. A single polyhedron is a
// set of one clause; an empty set matches nothing.
type PagePred struct {
	clauses []vec.Polyhedron
}

// CompilePagePred compiles a WHERE's clauses. Every plane must be
// Dim-dimensional (the parser guarantees this for colorsql input).
func CompilePagePred(clauses []vec.Polyhedron) (*PagePred, error) {
	for c, q := range clauses {
		for i := range q.Planes {
			if len(q.Planes[i].A) != Dim {
				return nil, fmt.Errorf("table: page predicate clause %d plane %d has dimension %d, want %d", c, i, len(q.Planes[i].A), Dim)
			}
		}
	}
	return &PagePred{clauses: clauses}, nil
}

// Classify returns the three-way verdict of the zone box against the
// predicate: Outside every clause, Inside any clause, else Partial —
// the rule the kd walk applies to a node's bounds. The accumulation
// order per plane matches the per-row strip loop (ascending axis), and
// float multiply/add are monotone, so a page classified Outside
// provably contains no matching row and an Inside page contains only
// matching rows — pruning is exact, not approximate.
func (p *PagePred) Classify(z *PageZone) vec.Relation {
	return vec.ClassifyBoxUnion(p.clauses, vec.Box{Min: z.Min[:], Max: z.Max[:]})
}

// evalStrips evaluates the predicate over a page's magnitude strips:
// each clause fills a match mask (evalClause) and the masks OR
// together, so a row is tested against the disjunction once however
// many clauses it satisfies; the first clause writes match directly, so
// a convex predicate pays for no second mask. A strip is decoded once
// for all clauses (and for a KeyBound evaluated after them: loaded
// marks the strips already in the scratch). Returns the number of
// strips decoded. match holds the page's slots [lo, lo+len(match)), the
// rows in the scan's range; only those are decoded and tested.
func (p *PagePred) evalStrips(data []byte, lo int, loaded *[Dim]bool, sc *stripScratch, match []bool) int {
	if len(p.clauses) == 0 {
		clear(match)
	}
	decoded := 0
	for c, q := range p.clauses {
		if c == 0 {
			decoded += evalClause(q.Planes, data, lo, loaded, sc, match)
			continue
		}
		mask := sc.mask[lo : lo+len(match)]
		decoded += evalClause(q.Planes, data, lo, loaded, sc, mask)
		for j, m := range mask {
			match[j] = match[j] || m
		}
	}
	return decoded
}

// evalClause evaluates one convex clause over the strips: for each
// plane, accumulate a·x across the referenced strips into acc, then
// AND the comparison into the match mask. The inner loops are simple
// index-free range loops over contiguous float64 slices — no per-row
// branching until the mask is consumed. Strips not yet in loaded are
// decoded into the scratch; their number is returned. match holds slots
// [lo, lo+len(match)).
func evalClause(planes []vec.Halfspace, data []byte, lo int, loaded *[Dim]bool, sc *stripScratch, match []bool) int {
	hi := lo + len(match)
	for j := range match {
		match[j] = true
	}
	decoded := 0
	for i := range planes {
		h := &planes[i]
		acc := sc.acc[lo:hi]
		for j := range acc {
			acc[j] = 0
		}
		for axis := 0; axis < Dim; axis++ {
			a := h.A[axis]
			if a == 0 {
				continue
			}
			decoded += sc.load(data, axis, lo, hi, loaded)
			for j, v := range sc.mags[axis][lo:hi] {
				acc[j] += a * v
			}
		}
		b := h.B
		for j, s := range acc {
			match[j] = match[j] && s <= b
		}
	}
	return decoded
}

// SkyBoxPred is a rectangular cut on the sky: ra in [RaMin, RaMax]
// and dec in [DecMin, DecMax], both inclusive. The box does not wrap
// through ra = 0/360 — a caller with a wrapping box splits it into
// two. Page zones hold no sky bounds: a sky scan prunes through a
// RowSet (sky.CellIndex) and tests every other row with Contains.
type SkyBoxPred struct {
	RaMin, RaMax   float64
	DecMin, DecMax float64
}

// Contains reports whether one position falls in the box.
func (p *SkyBoxPred) Contains(ra, dec float64) bool {
	return ra >= p.RaMin && ra <= p.RaMax && dec >= p.DecMin && dec <= p.DecMax
}

// evalSky fills the match mask for one page's rows by testing each
// slot's (ra, dec) against the box. Returns the number of strips
// decoded (ra and dec count as one each, mirroring evalStrips'
// accounting).
func (p *SkyBoxPred) evalSky(data []byte, n int, match []bool) int {
	for j := 0; j < n; j++ {
		ra, dec := decodeSkyAt(data, j)
		match[j] = p.Contains(ra, dec)
	}
	return 2
}

// evalSkyRows is evalSky over a page whose rows (from RowID first on)
// a RowSet covers: only its members are tested, the rest are proven
// outside the box and stay unmatched.
func (p *SkyBoxPred) evalSkyRows(data []byte, set *RowSet, first int, match []bool) int {
	clear(match)
	end := first + len(match)
	for r := set.next(first, end); r < end; r = set.next(r+1, end) {
		ra, dec := decodeSkyAt(data, r-first)
		match[r-first] = p.Contains(ra, dec)
	}
	return 2
}

// stripScratch is the per-iterator working set of the strip filter:
// decoded magnitude strips, the accumulator and a clause mask, sized
// to one page.
type stripScratch struct {
	mags [Dim][RecordsPerPage]float64
	acc  [RecordsPerPage]float64
	mask [RecordsPerPage]bool // one clause's matches, second clause on
}

// load decodes one axis' strip, slots [lo, hi), into the scratch unless
// loaded says it is already there; it returns the number of strips
// decoded (0 or 1).
func (sc *stripScratch) load(data []byte, axis, lo, hi int, loaded *[Dim]bool) int {
	if loaded[axis] {
		return 0
	}
	decodeMagStrip(data, axis, lo, sc.mags[axis][lo:hi])
	loaded[axis] = true
	return 1
}

// ScanCounters aggregates the page work of one streaming scan: every
// range iterator of the scan adds into one set.
type ScanCounters struct {
	// Examined counts rows of scanned (non-skipped) pages within the
	// requested ranges: partial pages test them all in the strip loop,
	// inside pages emit them without a test.
	Examined atomic.Int64
	// PagesSkipped counts pages pruned by their zone without a read:
	// Outside the predicate, or ruled out by a published KeyBound.
	PagesSkipped atomic.Int64
	// PagesScanned counts page fetches, filtered range or not.
	PagesScanned atomic.Int64
	// StripsDecoded counts magnitude strips materialized by the
	// filter loop (inside pages decode none).
	StripsDecoded atomic.Int64
}
