package table

import (
	"context"
	"math/bits"

	"repro/internal/pagestore"
	"repro/internal/vec"
)

// Iter is a pull-style range scanner: the Volcano-cursor counterpart
// of the callback ScanRange. It keeps the current page pinned
// between Next calls, decodes only the requested columns, and checks
// its context at every page boundary so a cancelled query stops
// issuing page I/O mid-range rather than running to completion.
//
// With a page predicate attached (IterRangePred) the iterator is
// zone-map-aware: before fetching a page it classifies the page's
// zone against the predicate. Outside pages are skipped without any
// page read; Inside pages emit every row with no per-row test; only
// Partial pages (and tables without zone maps) run the vectorized
// strip filter, which evaluates the predicate over the page's
// contiguous magnitude strips and leaves a match mask the emit loop
// consumes. The emitted row set is exactly the predicate's — pruning
// trades I/O, never answers.
//
// An Iter is single-goroutine; Close releases the pinned page and is
// required unless Next has already returned false (exhaustion
// releases it too, and Close stays safe to call either way).
type Iter struct {
	t    *Table
	ctx  context.Context
	cols ColumnSet

	pred     *PagePred
	sky      *SkyBoxPred
	rows     *RowSet
	keyBound *KeyBound
	counters *ScanCounters
	scratch  *stripScratch

	// bound is the visible row count captured at construction: per-page
	// row counts derive from it rather than the page header, whose
	// count bytes a concurrent ingest append may be rewriting.
	bound    uint64
	row, hi  RowID
	page     *pagestore.Page
	filtered bool
	match    [RecordsPerPage]bool
	err      error
	// keyed: NextKey is the consumer, so every page read is keyed.
	// emitted: NextKey returned it.row, which the next call steps past.
	keyed, emitted bool
}

// IterRange starts a pull scan of rows [lo, hi) in physical order,
// decoding only cols into the caller's record. A nil ctx means no
// cancellation. hi is clamped to the row count, mirroring ScanRange.
func (t *Table) IterRange(ctx context.Context, lo, hi RowID, cols ColumnSet) *Iter {
	return t.IterRangePred(ctx, lo, hi, cols, nil, nil, nil)
}

// IterRangePred is IterRange with a compiled page predicate: only
// rows satisfying pred are emitted, pages whose zone map proves them
// empty are never read, and the scan counters accumulate into
// counters (which may be shared across iterators and goroutines; nil
// means don't count). A nil pred emits every row like IterRange and
// still counts the pages it fetches and the rows on them — how the
// executor accounts its unfiltered Inside ranges. A non-nil bound
// additionally drops, once published, the pages and rows whose ordering
// key ranks strictly after it (KeyBound).
func (t *Table) IterRangePred(ctx context.Context, lo, hi RowID, cols ColumnSet, pred *PagePred, bound *KeyBound, counters *ScanCounters) *Iter {
	rows := t.numRows()
	if hi > RowID(rows) {
		hi = RowID(rows)
	}
	if lo > hi {
		lo = hi
	}
	it := &Iter{t: t, ctx: ctx, cols: cols, bound: rows, row: lo, hi: hi, pred: pred, keyBound: bound, counters: counters}
	if pred != nil {
		it.scratch = &stripScratch{}
	}
	return it
}

// IterRangeSky is IterRangePred's spatial counterpart: rows whose
// (ra, dec) falls in the box are emitted. A non-nil row set narrows
// the pages it covers to its members: a covered page holding none is
// skipped unread, and only the members of the others are tested
// against the box (RowSet). Every other page is read and each of its
// rows tested. Pruning counters accumulate into counters as usual.
func (t *Table) IterRangeSky(ctx context.Context, lo, hi RowID, cols ColumnSet, sky *SkyBoxPred, set *RowSet, counters *ScanCounters) *Iter {
	rows := t.numRows()
	if hi > RowID(rows) {
		hi = RowID(rows)
	}
	if lo > hi {
		lo = hi
	}
	return &Iter{t: t, ctx: ctx, cols: cols, bound: rows, row: lo, hi: hi, sky: sky, rows: set, counters: counters}
}

// RowSet is what an index proves about a scan before it starts: of the
// rows [0, Covered), only the members can be in the answer. A scan
// carrying one skips, unread, every page whose rows are all covered
// and none a member, and tests only the members of the other covered
// pages; a page reaching past Covered is scanned as usual. The zero
// value covers nothing.
type RowSet struct {
	covered int
	words   []uint64
}

// NewRowSet returns an empty set covering rows [0, covered).
func NewRowSet(covered int) *RowSet {
	return &RowSet{covered: covered, words: make([]uint64, (covered+63)/64)}
}

// Add marks row r as possibly in the answer; a row past the covered
// prefix is ignored (it is always tested anyway).
func (s *RowSet) Add(r int) {
	if r < s.covered {
		s.words[r>>6] |= 1 << (r & 63)
	}
}

// Covered returns how many leading rows the set covers.
func (s *RowSet) Covered() int { return s.covered }

// Len returns the number of members.
func (s *RowSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Has reports whether row r is a member.
func (s *RowSet) Has(r int) bool {
	return r >= 0 && r < s.covered && s.words[r>>6]&(1<<(r&63)) != 0
}

// covers reports whether every row of page pg is covered.
func (s *RowSet) covers(pg uint64) bool {
	return s != nil && (pg+1)*RecordsPerPage <= uint64(s.covered)
}

// next returns the first member in [r, end), or end if there is none;
// end must not pass the covered prefix.
func (s *RowSet) next(r, end int) int {
	for r < end {
		if w := s.words[r>>6] >> (r & 63); w != 0 {
			return min(r+bits.TrailingZeros64(w), end)
		}
		r = (r | 63) + 1
	}
	return end
}

// Next advances to the next (matching) row, decoding it into rec. It
// returns false at the end of the range, on error, or when the
// context is cancelled; check Err to distinguish.
func (it *Iter) Next(rec *Record) bool {
	if !it.seek() {
		return false
	}
	decodeRecordColsAt(it.page.Data, it.slot(), it.cols, rec)
	it.step()
	return true
}

// Row returns the id of the row the last successful Next decoded.
func (it *Iter) Row() RowID { return it.row - 1 }

// NextKey is Next for a consumer that ranks before it decodes: it
// advances to the next row the bound admits and returns the row's id
// and its key under the iterator's KeyBound, taken from the magnitude
// strips — every row of a page it reads is keyed, τ published or not —
// and decodes nothing. Decode reads the row's columns until the next
// call. The iterator must carry a bound.
func (it *Iter) NextKey() (RowID, float64, bool) {
	if it.emitted {
		it.emitted = false
		it.step()
	}
	it.keyed = true
	if !it.seek() {
		return 0, 0, false
	}
	it.emitted = true
	return it.row, it.scratch.acc[it.slot()], true
}

// Decode decodes the row NextKey last returned into rec.
func (it *Iter) Decode(rec *Record) {
	decodeRecordColsAt(it.page.Data, it.slot(), it.cols, rec)
}

// Reset repositions the iterator on rows [lo, hi) of the same view,
// keeping its columns, predicate, bound, counters and strip scratch, so
// a consumer scanning many ranges under one bound allocates nothing per
// range. The pinned page is released, and hi is clamped to the row count
// the iterator was opened with.
func (it *Iter) Reset(lo, hi RowID) {
	it.release()
	hi = min(hi, RowID(it.bound))
	it.row, it.hi = min(lo, hi), hi
	it.err, it.emitted = nil, false
}

// seek positions the iterator on the next matching row, its page
// pinned. It returns false at the end of the range, on error, or when
// the context is cancelled. A matching row on the pinned page — the
// common case — is decided here, small enough to inline into Next: a
// page stays pinned only while it.row is inside the range.
func (it *Iter) seek() bool {
	if it.page != nil && (!it.filtered || it.match[uint64(it.row)%RecordsPerPage]) {
		return true
	}
	return it.seekPage()
}

// seekPage is seek's loop: it skips unmatched rows and loads (or prunes)
// pages until a matching row is pinned or the range ends.
func (it *Iter) seekPage() bool {
	for {
		if it.err != nil || it.row >= it.hi {
			it.release()
			return false
		}
		if it.page == nil && !it.loadPage() {
			if it.err != nil {
				return false
			}
			continue // page pruned by its zone; row advanced past it
		}
		if it.filtered && !it.match[it.slot()] {
			it.step()
			continue
		}
		return true
	}
}

// slot is the current row's position on its page.
func (it *Iter) slot() int { return int(uint64(it.row) % RecordsPerPage) }

// step moves past the current row, releasing its page after the last
// row of the page or of the range.
func (it *Iter) step() {
	it.row++
	if uint64(it.row)%RecordsPerPage == 0 || it.row >= it.hi {
		it.release()
	}
}

// loadPage positions the iterator on the page holding it.row. True
// means the page is pinned (it.page set); false with nil it.err means
// the page was pruned by its zone and it.row advanced past it (the
// caller retries); false with it.err set is a failure.
func (it *Iter) loadPage() bool {
	if it.ctx != nil {
		if err := it.ctx.Err(); err != nil {
			it.err = err
			return false
		}
	}
	pg := uint64(it.row) / RecordsPerPage
	pageEnd := RowID((pg + 1) * RecordsPerPage)
	if pageEnd > it.hi {
		pageEnd = it.hi
	}

	tau, bounded := it.keyBound.Tau()

	// Page verdict: one verdict drives both the skip and the
	// inside-page fast path. A row set skips the covered pages that
	// hold none of its members. Otherwise the magnitude zone decides:
	// the predicate classifies it, and a published key bound skips the
	// pages whose zone holds no key that could still enter the top k.
	// Partial is the conservative default for tables without zone maps
	// and for sky scans, whose zones hold no ra/dec bounds.
	rel := vec.Partial
	covered := it.rows.covers(pg)
	if covered && it.rows.next(int(it.row), int(pageEnd)) == int(pageEnd) {
		rel = vec.Outside
	} else if it.pred != nil || bounded {
		if z, ok := it.t.zoneOf(int(pg)); ok {
			if it.pred != nil {
				rel = it.pred.Classify(&z)
			}
			if bounded && it.keyBound.best(z.Min[:], z.Max[:]) > tau {
				rel = vec.Outside
			}
		}
	}
	if rel == vec.Outside {
		if it.counters != nil {
			it.counters.PagesSkipped.Add(1)
		}
		it.row = pageEnd
		return false
	}

	p, err := it.t.readPage(pagestore.PageID{File: it.t.file, Num: pagestore.PageNum(pg)})
	if err != nil {
		it.err = err
		return false
	}
	// Per-page row count from the snapshot bound, not the header: the
	// header's count bytes may be mid-rewrite by a concurrent append,
	// and may already claim rows published after this iterator opened.
	n := pageRowCount(it.bound, pg)
	it.page = p
	it.filtered = false
	if it.counters != nil {
		it.counters.PagesScanned.Add(1)
		it.counters.Examined.Add(int64(pageEnd - it.row))
	}
	// The strip filters decode and test only the range's slots [lo, end).
	lo, end := it.slot(), int(uint64(pageEnd)-pg*RecordsPerPage)
	strips := 0
	var loaded [Dim]bool
	if rel != vec.Inside {
		switch {
		case it.pred != nil:
			// Partial overlap (or no zone to consult): vectorized strip
			// filter over the page's rows.
			strips = it.pred.evalStrips(p.Data, lo, &loaded, it.scratch, it.match[lo:end])
			it.filtered = true
		case it.sky != nil && covered:
			strips = it.sky.evalSkyRows(p.Data, it.rows, int(pg*RecordsPerPage), it.match[:n])
			it.filtered = true
		case it.sky != nil:
			strips = it.sky.evalSky(p.Data, n, it.match[:n])
			it.filtered = true
		}
	}
	if bounded || it.keyed {
		if it.scratch == nil {
			it.scratch = &stripScratch{}
		}
		strips += it.keyBound.evalStrips(p.Data, lo, &loaded, it.scratch, it.match[lo:end], tau, it.filtered)
		it.filtered = true
	}
	if it.counters != nil && strips > 0 {
		it.counters.StripsDecoded.Add(int64(strips))
	}
	return true
}

// Err returns the first error the iterator hit (context cancellation
// surfaces here), or nil after a clean exhaustion.
func (it *Iter) Err() error { return it.err }

// Close releases the pinned page. Safe to call multiple times and
// after exhaustion.
func (it *Iter) Close() { it.release() }

func (it *Iter) release() {
	if it.page != nil {
		it.page.Release()
		it.page = nil
	}
}
