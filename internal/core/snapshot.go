package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/memtable"
	"repro/internal/planner"
	"repro/internal/table"
	"repro/internal/vec"

	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/photoz"
)

// dbSnap is the read view every reader holds for its whole lifetime —
// a cursor, a kNN or photo-z batch, a grid sample: the index structures
// and fixed-bound table views that were current when it opened, plus
// the memtable rows acknowledged by then. Compactions publish rows and
// swap rebuilt indexes under db.mu, and the snapshot is captured under
// one RLock of the same mutex, so a snapshot never observes a torn
// merge: a row is either in mem or within the paged bound, never both,
// never neither.
//
// A snapshot also names the physical table files it reads (files): the
// catalog's, the grid's and the photo-z reference's. A file lives while
// the committed catalog or an open snapshot names it, so the one commit
// point (commitLocked) unlinks only what neither names; a file a full
// compaction superseded under an open snapshot goes at the first commit
// after its last release. Releasing writes nothing.
type dbSnap struct {
	db      *SpatialDB
	catalog *table.Table
	sky     *skyIndex // the catalog's own, captured with it

	kd     *kdtree.Tree
	grid   *grid.Index
	photoZ *photoz.Estimator

	mem []memtable.Row

	files    []string
	released atomic.Bool
}

// snapshot captures the store's read view under one RLock and pins the
// files it names.
func (db *SpatialDB) snapshot() (*dbSnap, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.catalog == nil {
		return nil, fmt.Errorf("core: no catalog loaded")
	}
	sn := &dbSnap{
		db:      db,
		catalog: db.catalog.Snapshot(),
		sky:     db.sky,
		kd:      db.kd,
		grid:    db.grid,
		photoZ:  db.photoZ,
		files:   []string{db.catalog.Name()},
	}
	if db.mem != nil {
		sn.mem = db.mem.Snapshot()
	}
	if db.grid != nil {
		sn.files = append(sn.files, db.grid.Table().Name())
	}
	if db.photoZ != nil {
		sn.files = append(sn.files, db.photoZ.Table.Name())
	}
	db.pinMu.Lock()
	if db.pins == nil {
		db.pins = make(map[string]int)
	}
	for _, f := range sn.files {
		db.pins[f]++
	}
	db.pinMu.Unlock()
	return sn, nil
}

// release drops the snapshot's pins. Idempotent, and it does no I/O:
// the next commit unlinks whatever the release left unnamed.
func (sn *dbSnap) release() {
	if sn.released.Swap(true) {
		return
	}
	db := sn.db
	db.pinMu.Lock()
	for _, f := range sn.files {
		if db.pins[f]--; db.pins[f] == 0 {
			delete(db.pins, f)
		}
	}
	db.pinMu.Unlock()
}

// planner builds a cost-based planner over the snapshot's view, so
// plan resolution and execution see the same row bounds.
func (sn *dbSnap) planner() *planner.Planner {
	return &planner.Planner{
		Catalog: sn.catalog,
		Kd:      sn.kd,
		Sample:  sn.grid.FirstLayer(),
		MemRows: int64(len(sn.mem)),
	}
}

// memCursor streams the snapshot's memtable rows through the Cursor
// interface, optionally filtered, projecting each emitted record to
// the same column set the paged stream decodes so the two sources are
// byte-identical under any projection. Under an ordered LIMIT's key
// bound a row keying strictly after τ is dropped before it is
// projected, as the paged strips drop it.
type memCursor struct {
	rows   []memtable.Row
	filter func(*table.Record) bool // nil emits every row
	cols   table.ColumnSet
	bound  *table.KeyBound
	// first is the physical position of rows[0]: the paged row bound.
	first int64

	pos      int
	cur      table.Record
	examined int64
	emitted  int64
}

// whereMemFilter builds the memtable-side predicate matching a WHERE's
// scan: exact containment of the magnitudes in any clause, the same
// test the paged stream's filtering ranges apply.
func whereMemFilter(clauses []vec.Polyhedron) func(*table.Record) bool {
	return func(r *table.Record) bool {
		var m [table.Dim]float64
		for i, v := range r.Mags {
			m[i] = float64(v)
		}
		for _, q := range clauses {
			if engine.ContainsMags(q, &m) {
				return true
			}
		}
		return false
	}
}

func (c *memCursor) Next() bool {
	// τ tightens only as the consumer ranks an emitted row: between
	// calls, never within one.
	tau, bounded := c.bound.Tau()
	for c.pos < len(c.rows) {
		r := &c.rows[c.pos].Rec
		c.pos++
		c.examined++
		if bounded && c.bound.Key(&r.Mags) > tau {
			continue
		}
		if c.filter != nil && !c.filter(r) {
			continue
		}
		c.cur = r.Project(c.cols)
		c.emitted++
		return true
	}
	return false
}

func (c *memCursor) Record() *table.Record { return &c.cur }
func (c *memCursor) rowPos() int64         { return c.first + int64(c.pos-1) }
func (c *memCursor) Err() error            { return nil }
func (c *memCursor) Close() error          { return nil }

func (c *memCursor) Stats() Report {
	return Report{RowsReturned: c.emitted, RowsExamined: c.examined}
}

// chainCursor concatenates the paged cursor with the memtable cursor,
// paged rows first, memtable rows in commit order — the place a minor
// compaction moves them to: past every paged row, as one run (in
// commit order without a kd-tree, by leaf and then commit order with
// one). A snapshot fixes its own rows and their order, whatever a
// concurrent compaction publishes.
type chainCursor struct {
	base Cursor
	mem  *memCursor

	inMem bool
	final Report // base stats folded at the switchover
	err   error
}

func (c *chainCursor) Next() bool {
	if c.err != nil {
		return false
	}
	if !c.inMem {
		if c.base.Next() {
			return true
		}
		if err := c.base.Err(); err != nil {
			c.err = err
			return false
		}
		c.foldBase()
	}
	return c.mem.Next()
}

// foldBase closes the paged child and freezes its final stats.
func (c *chainCursor) foldBase() {
	if c.inMem {
		return
	}
	c.inMem = true
	c.base.Close()
	c.final = c.base.Stats()
}

func (c *chainCursor) Record() *table.Record {
	if c.inMem {
		return c.mem.Record()
	}
	return c.base.Record()
}

func (c *chainCursor) rowPos() int64 {
	if c.inMem {
		return c.mem.rowPos()
	}
	return c.base.(rowCursor).rowPos()
}

func (c *chainCursor) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.base.Err()
}

func (c *chainCursor) Close() error {
	c.foldBase()
	return nil
}

func (c *chainCursor) Stats() Report {
	var r Report
	if c.inMem {
		r = c.final
	} else {
		r = c.base.Stats()
	}
	ms := c.mem.Stats()
	r.RowsReturned += ms.RowsReturned
	r.RowsExamined += ms.RowsExamined
	return r
}

// snapCursor pairs a cursor with the snapshot backing it, releasing
// the snapshot's file pin exactly once on Close.
type snapCursor struct {
	Cursor
	sn *dbSnap
}

func (c *snapCursor) rowPos() int64 { return c.Cursor.(rowCursor).rowPos() }

func (c *snapCursor) Close() error {
	err := c.Cursor.Close()
	c.sn.release()
	return err
}
