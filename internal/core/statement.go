package core

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/colorsql"
	"repro/internal/table"
)

// This file executes parsed colorsql statements through the
// streaming cursor pipeline:
//
//	SELECT <cols|*> [WHERE <pred>] [ORDER BY <expr|dist(...)>] [LIMIT n]
//
// Pushdown rules:
//
//   - LIMIT with no ORDER BY is pushed into the scan itself, whatever
//     the WHERE — none, one clause or a DNF union, which is one walk
//     over disjoint ranges like any other (DESIGN.md "A WHERE is one
//     walk"): the stream runs serially and the scan stops at the page
//     holding the n-th matching row. Pages read are bounded by the
//     limit, not the selection.
//   - ORDER BY <linear expr | dist(p)> LIMIT k bounds the scan by the
//     k-th key: once the k-row heap is full its root key is one more
//     constraint of the predicate — a half-space, or for dist(p) a
//     ball — tightened as the scan runs. The scan visits its candidate
//     pages best key first, so the bound tightens as fast as the data
//     allows, and it stops at the first page whose zone cannot beat it:
//     that page and every page left are skipped unread. On a
//     kd-clustered catalog the pages are found lazily, by walking the
//     tree best node first — a node keyed by its tight bounds, a leaf
//     yielding its pages — so the scan's CPU grows with what it visits,
//     not with the catalog. On the pages it reads, rows that cannot
//     beat the bound are dropped from the strips undecoded, and memtable
//     rows before they are copied (table.KeyBound; DESIGN.md "Pushdown
//     rules"). Only strictly worse keys are dropped, and rows tied on
//     key rank by ObjID and then by their place in the physical order,
//     so the answer is the unbounded table-order scan's. A WHERE always
//     runs the index scan, so the bound prunes however unselective the
//     WHERE; only a forced full scan consults no zones and reads in
//     table order. With no LIMIT or a LIMIT above the matches nothing is
//     published and the sort sees every matching row; LIMIT still
//     bounds its memory to the heap.
//   - ORDER BY dist(p) LIMIT k with no WHERE is exactly kNN, and it is
//     this statement: the walk above over the whole catalog, then the
//     memtable — the paper's §3.3 search, growing its region around p
//     in steps of kd-boxes, cancellable at every page like any scan.
//     Without a tree it visits the catalog's pages best zone first. A
//     kNN batch runs one such statement per probe (a one-point batch
//     shares the statement's result-cache entry), and a photo-z batch
//     one FROM reference statement per probe, which walks the photo-z
//     reference rows with their own tree.
//   - Projection is pushed to the page bytes: only the selected
//     columns are decoded (plus, under an ordering, the magnitudes its
//     key evaluates and the object id that breaks its ties — cleared
//     again before emission when not projected).
//
//   - A WHERE the kd walk proves empty — no range survives the tree's
//     bounds and the page zones — streams over the cached plan's zero
//     ranges: no page is read, and only memtable rows are tested. It is
//     not special-cased anywhere else; with a LIMIT its empty answer is
//     one ordinary result-cache entry.
//
// Every physical row is met once and rows are never merged, so the
// pushed-down LIMIT is exact whether or not ObjIDs are unique.

// QueryStatement parses and executes a full colorsql statement,
// returning a streaming cursor. The context cancels the query
// mid-scan: page I/O stops at the next page boundary.
func (db *SpatialDB) QueryStatement(ctx context.Context, src string, plan Plan) (Cursor, error) {
	stmt, err := colorsql.ParseStatement(src, colorsql.DefaultVars(), table.Dim)
	if err != nil {
		return nil, err
	}
	return db.ExecStatement(ctx, stmt, plan)
}

// ExecStatement executes an already-parsed statement through the
// cursor pipeline. The caller must Close the cursor; its Stats are
// exact for the work this statement actually did, including under
// early termination.
//
// With the result cache enabled (Config.ResultCacheBytes > 0),
// bounded-LIMIT statements are materialized once and served from
// memory: a repeated statement returns a cursor over the cached rows
// with Report.FromCache set and zero I/O counters, and N concurrent
// identical statements trigger one execution (singleflight) whose
// answer they all share — one entry per statement, an empty answer
// included. Statements with no LIMIT (or one above the cacheable cap)
// always stream. Cached and uncached answers are
// byte-identical: the entry holds exactly what Collect over the
// uncached cursor returned, keyed under the store epoch so any
// persisted mutation or index build invalidates it.
func (db *SpatialDB) ExecStatement(ctx context.Context, stmt colorsql.Statement, plan Plan) (Cursor, error) {
	if err := db.validatePlan(plan); err != nil {
		return nil, err
	}

	// LIMIT 0 short-circuits before any planning or I/O.
	if stmt.Limit == 0 {
		return SliceCursor(nil, Report{Plan: plan, PlanReason: "LIMIT 0: no rows requested"}), nil
	}
	if !db.ResultCacheEnabled() {
		return db.execStatementUncached(ctx, stmt, plan)
	}

	key, ok := statementCacheKey(stmt, plan)
	if !ok {
		db.qc.Bypass(nsQuery)
		return db.execStatementUncached(ctx, stmt, plan)
	}
	recs, rep, err := do(db, nsQuery, key, rowsBytes, func() ([]table.Record, Report, error) {
		cur, err := db.execStatementUncached(ctx, stmt, plan)
		if err != nil {
			return nil, Report{}, err
		}
		return Collect(cur)
	})
	if err != nil {
		return nil, err
	}
	return SliceCursor(recs, rep), nil
}

// execStatementUncached is the streaming execution path beneath the
// result cache.
func (db *SpatialDB) execStatementUncached(ctx context.Context, stmt colorsql.Statement, plan Plan) (Cursor, error) {
	opts := db.statementOpts(stmt)
	var cur Cursor
	var err error
	switch {
	case stmt.Reference:
		cur, err = db.referenceStatementCursor(ctx, opts)
	case stmt.HasWhere:
		cur, err = db.whereCursor(ctx, stmt.Where, plan, opts)
	default:
		cur, err = db.fullCatalogCursor(ctx, opts)
	}
	if err != nil {
		return nil, err
	}
	return rankOrLimit(stmt, opts, cur), nil
}

// statementOpts resolves a statement's decode set and pushdown: an
// unordered LIMIT stops the scan, an ordered one bounds it by its k-th
// key.
func (db *SpatialDB) statementOpts(stmt colorsql.Statement) cursorOpts {
	opts := cursorOpts{cols: db.statementCols(stmt), stopAfter: -1}
	if o := stmt.Order; stmt.Limit > 0 && o == nil {
		opts.stopAfter = int64(stmt.Limit)
	} else if stmt.Limit > 0 && o.Dist != nil {
		opts.bound = table.NewDistBound(o.Dist, o.Desc)
	} else if stmt.Limit > 0 {
		opts.bound = table.NewKeyBound(o.Coeffs, o.K, o.Desc)
	}
	return opts
}

// rankOrLimit puts a statement's ORDER BY or LIMIT over its scan,
// opened under statementOpts: a topkCursor tightening the scan's key
// bound, or a plain truncation.
func rankOrLimit(stmt colorsql.Statement, opts cursorOpts, cur Cursor) Cursor {
	if stmt.Order != nil {
		hideID := ColumnSet(stmt.OutputColumns())&table.ColObjID == 0
		key := orderKey(stmt.Order)
		if b := opts.bound; b != nil {
			key = func(r *table.Record) float64 { return b.Key(&r.Mags) }
		}
		return &topkCursor{child: cur.(rowCursor), key: key, limit: stmt.Limit, hideID: hideID, bound: opts.bound}
	}
	if stmt.Limit > 0 {
		return Limit(cur, stmt.Limit)
	}
	return cur
}

// statementCols resolves the decode set for a statement's emitted
// records: the projection, plus what an ordering reads — the
// magnitudes of its key and the object id that breaks its ties.
func (db *SpatialDB) statementCols(stmt colorsql.Statement) table.ColumnSet {
	if stmt.Star {
		return table.ColAll
	}
	cols := ColumnSet(stmt.Cols)
	if stmt.Order != nil {
		cols |= table.ColMags | table.ColObjID
	}
	return cols
}

// validatePlan refuses, before any page is read, a store with no
// catalog and a request for a plan a caller cannot force: a query asks
// for PlanAuto or the forced PlanFullScan, and the other values only
// report how it ran.
func (db *SpatialDB) validatePlan(plan Plan) error {
	if plan != PlanAuto && plan != PlanFullScan {
		return fmt.Errorf("core: plan %v reports how a query ran; request auto or fullscan", plan)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.catalog == nil {
		return fmt.Errorf("core: no catalog loaded")
	}
	return nil
}

// orderKey compiles the ORDER BY expression into a per-record key that
// ranks ascending: DESC negates it. A pushed-down bound ranks by its Key.
func orderKey(o *colorsql.OrderBy) func(*table.Record) float64 {
	return func(r *table.Record) float64 {
		var m [table.Dim]float64
		for i, v := range r.Mags {
			m[i] = float64(v)
		}
		if o.Desc {
			return -o.Key(m[:])
		}
		return o.Key(m[:])
	}
}

// RowEncoder serialises records as JSON objects holding exactly one
// statement's projected columns, in projection order. It is compiled
// once per statement — quoted keys with their separators, one append
// function per column — so encoding a row re-derives nothing from the
// column list, and it is the only row serialiser: vizserver's NDJSON
// and JSON rows and spatialq's statement output all go through it, so
// the CLI and HTTP answers for one statement can never disagree per
// column. Float32 fields format at float32 precision: the shortest
// round-tripping decimal, table.AppendFloat32.
type RowEncoder struct {
	cols []encColumn
}

type encColumn struct {
	key  []byte // `"name":` for the first column, `,"name":` after
	axis int    // magnitude axis for appendMag
	val  func(dst []byte, rec *table.Record, axis int) []byte
}

// NewRowEncoder compiles the encoder for one projection
// (stmt.OutputColumns()).
func NewRowEncoder(cols []colorsql.Column) *RowEncoder {
	e := &RowEncoder{cols: make([]encColumn, len(cols))}
	var keys []byte
	ends := make([]int, len(cols))
	for i, c := range cols {
		if i > 0 {
			keys = append(keys, ',')
		}
		keys = strconv.AppendQuote(keys, c.Name)
		keys = append(keys, ':')
		ends[i] = len(keys)
		e.cols[i].axis = c.Axis
		e.cols[i].val = columnAppenders[c.Kind]
	}
	start := 0
	for i, end := range ends {
		e.cols[i].key = keys[start:end]
		start = end
	}
	return e
}

// AppendRow appends rec as one JSON object.
func (e *RowEncoder) AppendRow(dst []byte, rec *table.Record) []byte {
	dst = append(dst, '{')
	for i := range e.cols {
		c := &e.cols[i]
		dst = append(dst, c.key...)
		dst = c.val(dst, rec, c.axis)
	}
	return append(dst, '}')
}

// AppendValue appends column i of rec as its bare JSON value.
func (e *RowEncoder) AppendValue(dst []byte, i int, rec *table.Record) []byte {
	return e.cols[i].val(dst, rec, e.cols[i].axis)
}

func appendMag(dst []byte, rec *table.Record, axis int) []byte {
	return table.AppendFloat32(dst, rec.Mags[axis])
}
func appendObjID(dst []byte, rec *table.Record, _ int) []byte {
	return strconv.AppendInt(dst, rec.ObjID, 10)
}
func appendRa(dst []byte, rec *table.Record, _ int) []byte  { return table.AppendFloat32(dst, rec.Ra) }
func appendDec(dst []byte, rec *table.Record, _ int) []byte { return table.AppendFloat32(dst, rec.Dec) }
func appendRedshift(dst []byte, rec *table.Record, _ int) []byte {
	return table.AppendFloat32(dst, rec.Redshift)
}

// columnAppenders maps each colorsql.ColumnKind to its value
// serialiser.
var columnAppenders = [...]func(dst []byte, rec *table.Record, axis int) []byte{
	colorsql.ColMag:      appendMag,
	colorsql.ColObjID:    appendObjID,
	colorsql.ColRa:       appendRa,
	colorsql.ColDec:      appendDec,
	colorsql.ColRedshift: appendRedshift,
	colorsql.ColClass:    appendClass,
}

// classJSON holds the quoted literal of every named class.
var classJSON = func() (lits [table.NumClasses][]byte) {
	for c := range lits {
		lits[c] = strconv.AppendQuote(nil, table.Class(c).String())
	}
	return lits
}()

func appendClass(dst []byte, rec *table.Record, _ int) []byte {
	if int(rec.Class) < len(classJSON) {
		return append(dst, classJSON[rec.Class]...)
	}
	return strconv.AppendQuote(dst, rec.Class.String())
}

// AppendRowJSON encodes one record under a throw-away encoder; loops
// compile a RowEncoder once instead.
func AppendRowJSON(dst []byte, cols []colorsql.Column, rec *table.Record) []byte {
	return NewRowEncoder(cols).AppendRow(dst, rec)
}
