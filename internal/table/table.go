package table

import (
	"fmt"
	"sync/atomic"

	"repro/internal/pagestore"
)

// RowID addresses a record within a Table by dense position: page =
// RowID / RecordsPerPage, slot = RowID % RecordsPerPage.
type RowID uint64

// Table is a heap file of Records on a page store, laid out
// column-major within each page (see colpage.go). Rows are addressed
// by dense RowIDs; the physical order of rows is the clustered order,
// which the indexes exploit by rewriting the table sorted by their
// key (the paper's clustered index over the Voronoi cell tag, and the
// post-order leaf numbering of the kd-tree whose leaves become
// BETWEEN ranges). Every table additionally carries per-page zone
// maps over the magnitudes (zonemap.go), maintained as rows are
// appended.
type Table struct {
	store *pagestore.Store
	file  pagestore.FileID
	name  string

	// rows is the published row count, shared by every view of the
	// table (pointer copy). Readers never see a row until it is
	// published: the appender encodes the row's strip bytes first and
	// stores the new count last, so the atomic store/load pair carries
	// the happens-before edge that makes those bytes visible. During
	// online compaction the count is held back (staged appender) and
	// published in one step together with the memtable trim, so a row
	// is never visible in both places at once.
	rows *atomic.Uint64

	// snapRows/snapped freeze a view's visible bound: a snapshot view
	// answers NumRows/NumPages from snapRows and never observes rows
	// published after Snapshot was taken. Cursor isolation is built on
	// this — see core's snapshot machinery.
	snapRows uint64
	snapped  bool

	// zones are the per-page magnitude zone maps, shared by every
	// Scoped/ScanClassed view (pointer copy). Nil on tables reopened
	// without a persisted sidecar: pruning is then unavailable, never
	// wrong.
	zones *ZoneMaps

	// scope, when non-nil, routes every page read through a per-caller
	// accounting scope so the reads are attributed exactly to one
	// query even under concurrency. Set via Scoped.
	scope *pagestore.Scope
	// scanClass marks the view's page reads as scan-class in the
	// buffer pool (probationary replacement — a full scan through
	// this view cannot wipe the pool's hot set). Set via ScanClassed.
	scanClass bool
}

// Create makes a new empty table backed by the named file. Freshly
// created tables maintain zone maps from the first append.
func Create(store *pagestore.Store, name string) (*Table, error) {
	f, err := store.CreateFile(name)
	if err != nil {
		return nil, err
	}
	return &Table{store: store, file: f, name: name, rows: new(atomic.Uint64), zones: NewZoneMaps()}, nil
}

// OpenExisting opens a table previously written to the named file,
// reconstructing the row count from the last page's header (one page
// read). When the row count is already known — e.g. from the
// engine's persisted catalog — prefer OpenWithRows, which opens the
// table without touching any page. Zone maps are not rebuilt here;
// attach a persisted sidecar via AttachZoneMaps.
func OpenExisting(store *pagestore.Store, name string) (*Table, error) {
	f, pages, err := store.OpenFile(name)
	if err != nil {
		return nil, err
	}
	t := &Table{store: store, file: f, name: name, rows: new(atomic.Uint64)}
	if pages > 0 {
		// Row count = full pages * RecordsPerPage + header of last page.
		last, err := store.Get(pagestore.PageID{File: f, Num: pages - 1})
		if err != nil {
			return nil, err
		}
		lastCount, err := colPageRows(last.Data)
		last.Release()
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", name, err)
		}
		t.rows.Store(uint64(pages-1)*RecordsPerPage + uint64(lastCount))
	}
	return t, nil
}

// OpenWithRows opens a previously written table whose row count is
// externally persisted (the engine catalog): no page is read. The
// page count on disk must be consistent with the claimed row count,
// otherwise the open fails instead of serving phantom or missing
// rows.
func OpenWithRows(store *pagestore.Store, name string, rows uint64) (*Table, error) {
	f, pages, err := store.OpenFile(name)
	if err != nil {
		return nil, err
	}
	want := pagestore.PageNum((rows + RecordsPerPage - 1) / RecordsPerPage)
	if pages != want {
		return nil, fmt.Errorf("table %s: catalog records %d rows (%d pages) but file has %d pages",
			name, rows, want, pages)
	}
	t := &Table{store: store, file: f, name: name, rows: new(atomic.Uint64)}
	t.rows.Store(rows)
	return t, nil
}

// Name returns the table's file name.
func (t *Table) Name() string { return t.name }

// numRows returns the view's visible row bound: frozen for a
// snapshot view, the live published count otherwise.
func (t *Table) numRows() uint64 {
	if t.snapped {
		return t.snapRows
	}
	return t.rows.Load()
}

// NumRows returns the number of visible records.
func (t *Table) NumRows() uint64 { return t.numRows() }

// NumPages returns the number of pages the visible rows occupy. It is
// derived from the published row count rather than the file length,
// so a page the ingest path has allocated but not yet published is
// not visible — and a snapshot view's page count stays frozen with
// its row bound.
func (t *Table) NumPages() int {
	return int((t.numRows() + RecordsPerPage - 1) / RecordsPerPage)
}

// Snapshot returns a read-only view frozen at the current published
// row count: rows published afterwards — by ingest compaction running
// concurrently — are invisible to it, giving cursors a stable bound
// for the lifetime of a query. Scoped and ScanClassed views derived
// from a snapshot inherit the frozen bound.
func (t *Table) Snapshot() *Table {
	cp := *t
	cp.snapRows = t.numRows()
	cp.snapped = true
	return &cp
}

// PublishRows publishes the row count after a staged bulk append (see
// NewStagedAppender). The caller serializes publication with any
// other writer; readers pick the new bound up on their next Snapshot
// or NumRows call.
func (t *Table) PublishRows(n uint64) { t.rows.Store(n) }

// Store exposes the underlying page store (for stats snapshots).
func (t *Table) Store() *pagestore.Store { return t.store }

// ZoneMaps returns the table's per-page zone maps, or nil when none
// are maintained (a table reopened without its sidecar).
func (t *Table) ZoneMaps() *ZoneMaps { return t.zones }

// AttachZoneMaps installs persisted zone maps after validating them
// against the table's page count — the sidecar cold-open path.
func (t *Table) AttachZoneMaps(z *ZoneMaps) error {
	if err := z.Validate(t.NumPages()); err != nil {
		return fmt.Errorf("table %s: %w", t.name, err)
	}
	t.zones = z
	return nil
}

// zoneOf returns one page's zone when zone maps are available.
func (t *Table) zoneOf(pg int) (PageZone, bool) {
	if t.zones == nil {
		return PageZone{}, false
	}
	return t.zones.Page(pg)
}

// Scoped returns a read-only view of the table whose page accesses
// are attributed to the given accounting scope (pagestore.Scope) as
// well as the store-global counters. The view shares the table's
// storage; it must not be used to append rows, and it snapshots the
// current row count. Concurrent queries each wrap the shared table in
// their own scoped view to obtain exact per-query page stats.
func (t *Table) Scoped(sc *pagestore.Scope) *Table {
	cp := *t
	cp.scope = sc
	return &cp
}

// ScanClassed returns a view of the table whose page reads are
// marked scan-class in the buffer pool: pages it faults in park on
// the probationary (evict-first) list, so scanning the whole table
// recycles a handful of frames instead of evicting the hot set.
// Full-scan query paths wrap their (usually already Scoped) view in
// this; index-driven point and range reads do not.
func (t *Table) ScanClassed() *Table {
	cp := *t
	cp.scanClass = true
	return &cp
}

// WithoutZones returns a view of the table that consults no zone
// maps: a predicate scan through it fetches and filters every page.
// This is the full scan — the baseline the index scan is priced
// against must not quietly prune.
func (t *Table) WithoutZones() *Table {
	cp := *t
	cp.zones = nil
	return &cp
}

// pageBackend is the page-access surface shared by *pagestore.Store
// and *pagestore.Scope; the table resolves one backend (its scope if
// set) and then branches only on access class.
type pageBackend interface {
	Get(pagestore.PageID) (*pagestore.Page, error)
	GetScan(pagestore.PageID) (*pagestore.Page, error)
	Alloc(pagestore.FileID) (*pagestore.Page, error)
	AllocScan(pagestore.FileID) (*pagestore.Page, error)
}

func (t *Table) backend() pageBackend {
	if t.scope != nil {
		return t.scope
	}
	return t.store
}

// getPage fetches one page through the table's scope and access
// class, if any.
func (t *Table) getPage(id pagestore.PageID) (*pagestore.Page, error) {
	if t.scanClass {
		return t.backend().GetScan(id)
	}
	return t.backend().Get(id)
}

// allocPage appends a page through the table's scope and access
// class, if any.
func (t *Table) allocPage() (*pagestore.Page, error) {
	if t.scanClass {
		return t.backend().AllocScan(t.file)
	}
	return t.backend().Alloc(t.file)
}

// Appender bulk-loads records, keeping the tail page pinned between
// appends. Close it to flush the final page. Its page traffic is
// scan-class: a bulk load is a one-pass sweep, and writing a table
// must not evict a serving pool's hot set (mirroring pagedio's
// stream writer). The appender also maintains the table's zone maps:
// every appended row widens its page's magnitude bounds.
type Appender struct {
	t *Table
	// view is t with the scan class applied; row bookkeeping goes
	// through t, page I/O through view.
	view *Table
	page *pagestore.Page
	// pos is the physical append position. For a normal appender it is
	// republished after every append; a staged appender advances it
	// silently and the caller publishes once via PublishRows.
	pos    uint64
	staged bool
}

// NewAppender returns a bulk loader positioned at the end of the
// table. Every appended row is published (visible to readers)
// immediately.
func (t *Table) NewAppender() *Appender {
	return &Appender{t: t, view: t.ScanClassed(), pos: t.rows.Load()}
}

// NewStagedAppender returns a bulk loader whose appends stay
// invisible to readers until the caller publishes the new bound with
// PublishRows(a.Rows()). Online compaction uses this to copy memtable
// rows into the paged table while serving: snapshots taken mid-copy
// see none of the staged rows, and the publish step happens atomically
// with the memtable trim so no row is ever visible twice.
func (t *Table) NewStagedAppender() *Appender {
	a := t.NewAppender()
	a.staged = true
	return a
}

// Rows returns the appender's physical position: the row count the
// table will have once the staged rows are published.
func (a *Appender) Rows() uint64 { return a.pos }

// Append adds one record to the table.
//
// Concurrent-reader safety (the online ingest path appends while
// snapshots read): the full page header is written only when a page
// is created, before any row of that page can be visible; subsequent
// appends touch the count bytes alone, which readers never consult —
// they derive per-page row counts from their frozen bound. Each
// slot's strip bytes are disjoint from every other slot's, so an
// in-flight encode never overlaps a visible row's bytes.
func (a *Appender) Append(r *Record) error {
	slot := int(a.pos % RecordsPerPage)
	pg := int(a.pos / RecordsPerPage)
	if slot == 0 {
		// Previous page (if any) is full; start a new one.
		if a.page != nil {
			a.page.Release()
			a.page = nil
		}
		p, err := a.view.allocPage()
		if err != nil {
			return err
		}
		a.page = p
		setColPageMeta(p.Data, 0)
	} else if a.page == nil {
		// Resuming an append into a partially filled tail page.
		p, err := a.view.getPage(pagestore.PageID{File: a.t.file, Num: pagestore.PageNum(pg)})
		if err != nil {
			return err
		}
		if _, err := colPageRows(p.Data); err != nil {
			p.Release()
			return fmt.Errorf("table %s: %w", a.t.name, err)
		}
		a.page = p
	}
	encodeRecordAt(a.page.Data, slot, r)
	setColPageCount(a.page.Data, slot+1)
	a.page.MarkDirty()
	if a.t.zones != nil {
		a.t.zones.widen(pg, r)
	}
	a.pos++
	if !a.staged {
		a.t.rows.Store(a.pos)
	}
	return nil
}

// Close releases the tail page. The Appender must not be used after
// Close.
func (a *Appender) Close() {
	if a.page != nil {
		a.page.Release()
		a.page = nil
	}
}

// AppendAll bulk-loads a slice of records.
func (t *Table) AppendAll(recs []Record) error {
	a := t.NewAppender()
	defer a.Close()
	for i := range recs {
		if err := a.Append(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// rowPage maps a RowID to its page and slot.
func (t *Table) rowPage(id RowID) (pagestore.PageID, int, error) {
	if rows := t.numRows(); uint64(id) >= rows {
		return pagestore.PageID{}, 0, fmt.Errorf("table %s: row %d out of range (%d rows)", t.name, id, rows)
	}
	return pagestore.PageID{File: t.file, Num: pagestore.PageNum(uint64(id) / RecordsPerPage)},
		int(uint64(id) % RecordsPerPage), nil
}

// readPage pins one page for decoding and validates its header: every
// read path — point gets, the range walker, the pull iterator — goes
// through it, so a page that is not columnar v2 surfaces as an error
// naming the table, never as decoded garbage.
func (t *Table) readPage(id pagestore.PageID) (*pagestore.Page, error) {
	p, err := t.getPage(id)
	if err != nil {
		return nil, err
	}
	if err := checkColPage(p.Data); err != nil {
		p.Release()
		return nil, fmt.Errorf("table %s: %w", t.name, err)
	}
	return p, nil
}

// Get reads one record.
func (t *Table) Get(id RowID, out *Record) error {
	pid, slot, err := t.rowPage(id)
	if err != nil {
		return err
	}
	p, err := t.readPage(pid)
	if err != nil {
		return err
	}
	decodeRecordColsAt(p.Data, slot, ColAll, out)
	p.Release()
	return nil
}

// GetMany reads the records for a sorted-or-not list of row ids,
// calling fn for each. Consecutive ids on the same page share one
// page fetch.
func (t *Table) GetMany(ids []RowID, fn func(RowID, *Record) bool) error {
	var rec Record
	var cur *pagestore.Page
	var curNum pagestore.PageNum
	defer func() {
		if cur != nil {
			cur.Release()
		}
	}()
	for _, id := range ids {
		pid, slot, err := t.rowPage(id)
		if err != nil {
			return err
		}
		if cur == nil || pid.Num != curNum {
			if cur != nil {
				cur.Release()
			}
			cur, err = t.readPage(pid)
			if err != nil {
				return err
			}
			curNum = pid.Num
		}
		decodeRecordColsAt(cur.Data, slot, ColAll, &rec)
		if !fn(id, &rec) {
			return nil
		}
	}
	return nil
}

// Update rewrites one record in place via fn. The page's zone map is
// widened to cover the new magnitudes — widening is always sound
// (zones may only overapproximate), and the index builders that call
// Update only touch index columns anyway.
func (t *Table) Update(id RowID, fn func(*Record)) error {
	pid, slot, err := t.rowPage(id)
	if err != nil {
		return err
	}
	p, err := t.readPage(pid)
	if err != nil {
		return err
	}
	var rec Record
	decodeRecordColsAt(p.Data, slot, ColAll, &rec)
	fn(&rec)
	encodeRecordAt(p.Data, slot, &rec)
	p.MarkDirty()
	p.Release()
	if t.zones != nil {
		t.zones.widen(int(pid.Num), &rec)
	}
	return nil
}

// walkPages is the one page loop behind the callback scans: it visits
// the pages holding rows [lo, hi) (hi clamped to the visible bound) in
// physical order, handing fn each validated page's bytes, the RowID of
// the first row to visit on it, and that row's slot range [slot, end).
// Per-page row counts derive from the bound, not the page header (see
// pageRowCount). fn decodes its own rows — the per-row loop stays in
// the caller — and returns false to stop the walk.
func (t *Table) walkPages(lo, hi RowID, fn func(data []byte, row RowID, slot, end int) bool) error {
	if rows := RowID(t.numRows()); hi > rows {
		hi = rows
	}
	for row := lo; row < hi; {
		slot := int(uint64(row) % RecordsPerPage)
		end := min(RecordsPerPage, slot+int(hi-row))
		p, err := t.readPage(pagestore.PageID{File: t.file, Num: pagestore.PageNum(uint64(row) / RecordsPerPage)})
		if err != nil {
			return err
		}
		more := fn(p.Data, row, slot, end)
		p.Release()
		if !more {
			return nil
		}
		row += RowID(end - slot)
	}
	return nil
}

// Scan iterates every record in physical order. fn receives a
// record buffer that is reused between calls; copy it to retain.
// Returning false stops the scan early.
func (t *Table) Scan(fn func(RowID, *Record) bool) error {
	return t.ScanRange(0, RowID(t.numRows()), fn)
}

// ScanRange iterates rows [lo, hi) in physical order — the BETWEEN
// retrieval the kd-tree uses once leaves are numbered contiguously.
func (t *Table) ScanRange(lo, hi RowID, fn func(RowID, *Record) bool) error {
	var rec Record
	return t.walkPages(lo, hi, func(data []byte, row RowID, slot, end int) bool {
		for ; slot < end; slot++ {
			decodeRecordColsAt(data, slot, ColAll, &rec)
			if !fn(row, &rec) {
				return false
			}
			row++
		}
		return true
	})
}

// ScanMags iterates every record decoding only the magnitude vector
// — the fast binary-blob path of §3.5, now a strip gather per row.
// fn receives a buffer reused between calls.
func (t *Table) ScanMags(fn func(RowID, *[Dim]float64) bool) error {
	var mags [Dim]float64
	return t.walkPages(0, RowID(t.numRows()), func(data []byte, row RowID, slot, end int) bool {
		for ; slot < end; slot++ {
			decodeMagsAt(data, slot, &mags)
			if !fn(row, &mags) {
				return false
			}
			row++
		}
		return true
	})
}

// Rewrite writes a new table under newName containing this table's
// rows permuted so that new row i is old row perm[i]. This is how
// clustered orderings are installed (sort by LeafID or CellID, then
// Rewrite). perm must be a permutation of [0, NumRows). The rewritten
// table gets fresh zone maps from its appender — on a color-clustered
// ordering they come out much tighter than the source's.
func (t *Table) Rewrite(newName string, perm []RowID) (*Table, error) {
	if rows := t.numRows(); uint64(len(perm)) != rows {
		return nil, fmt.Errorf("table %s: permutation length %d != %d rows", t.name, len(perm), rows)
	}
	nt, err := Create(t.store, newName)
	if err != nil {
		return nil, err
	}
	a := nt.NewAppender()
	defer a.Close()
	var rec Record
	for _, old := range perm {
		if err := t.Get(old, &rec); err != nil {
			return nil, err
		}
		if err := a.Append(&rec); err != nil {
			return nil, err
		}
	}
	return nt, nil
}
