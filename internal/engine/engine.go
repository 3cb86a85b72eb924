// Package engine is the reproduction's database server: it owns the
// page store and a catalog of tables — the role MS SQL Server 2005
// plays in the paper's Figure 3. Queries run one layer up: the full
// table scan ("simple SQL query") that every index in the paper is
// measured against is core's forced PlanFullScan over a table
// registered here. The figure's stored procedures are
// core.SpatialDB's typed methods; the engine keeps no registry of
// them.
//
// The engine is safe for concurrent readers: the catalog is
// RW-latched, so any number of goroutines may look up tables while the
// maps stay mutable for (serialized) index builds. Access-path
// selection for spatial queries lives one layer up, in
// internal/planner.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/pagestore"
	"repro/internal/table"
	"repro/internal/vec"
)

// DB is the database engine instance. Catalog lookups are RW-latched:
// reads run concurrently, registrations serialize.
type DB struct {
	store *pagestore.Store

	mu     sync.RWMutex
	tables map[string]*table.Table
	// clusteredBy records each table's physical-order identity
	// ("heap" for load order, or the index key the table was rewritten
	// clustered on). Persisted in the catalog so a reopened process
	// knows which tables are which without re-deriving them.
	clusteredBy map[string]string
	// artifacts maps logical artifact names (index serializations) to
	// the physical file currently backing them, a name@gen file for
	// every artifact this binary writes. Persisted in the catalog.
	artifacts map[string]string
}

// Open creates an engine over a fresh page store rooted at dir with
// the given buffer pool size in pages.
func Open(dir string, poolPages int) (*DB, error) {
	s, err := pagestore.Open(dir, poolPages)
	if err != nil {
		return nil, err
	}
	return &DB{
		store:       s,
		tables:      make(map[string]*table.Table),
		clusteredBy: make(map[string]string),
		artifacts:   make(map[string]string),
	}, nil
}

// Store returns the underlying page store.
func (db *DB) Store() *pagestore.Store { return db.store }

// Close flushes and closes the underlying store.
func (db *DB) Close() error { return db.store.Close() }

// CreateTable creates and registers an empty table.
func (db *DB) CreateTable(name string) (*table.Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("engine: table %q already exists", name)
	}
	t, err := table.Create(db.store, name)
	if err != nil {
		return nil, err
	}
	db.tables[name] = t
	db.clusteredBy[name] = ClusteredHeap
	return t, nil
}

// SetTable registers t under a logical name, clustered on orderedBy
// (e.g. ClusteredKdLeaf), in place of any table registered under it
// before: an index build's clustered copy, or its rebuild backed by a
// fresh generational file. A replaced table's file leaves with the
// next commit, since the catalog no longer names it. The identity is
// persisted in the catalog.
func (db *DB) SetTable(name string, t *table.Table, orderedBy string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[name] = t
	db.clusteredBy[name] = orderedBy
}

// SetArtifact records the physical file backing a logical artifact
// name (an index serialization, written at a generational file). The
// mapping is persisted in the catalog, and the catalog names every
// recorded file, so each commit keeps it.
func (db *DB) SetArtifact(logical, physical string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.artifacts[logical] = physical
}

// ArtifactFile resolves a logical artifact name to the physical file
// currently backing it (the logical name itself when storage never
// moved).
func (db *DB) ArtifactFile(logical string) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if p, ok := db.artifacts[logical]; ok {
		return p
	}
	return logical
}

// ClusteredBy returns the recorded physical-order identity of a
// registered table (ClusteredHeap when none was recorded).
func (db *DB) ClusteredBy(name string) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if c, ok := db.clusteredBy[name]; ok {
		return c
	}
	return ClusteredHeap
}

// Table looks up a registered table.
func (db *DB) Table(name string) (*table.Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: no table %q", name)
	}
	return t, nil
}

// TableNames lists registered tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ContainsMags tests a raw magnitude array against the polyhedron
// without allocating a vec.Point. Exported so core filters memtable
// rows with it.
func ContainsMags(q vec.Polyhedron, m *[table.Dim]float64) bool {
	for _, h := range q.Planes {
		var s float64
		for i, a := range h.A {
			s += a * m[i]
		}
		if s > h.B {
			return false
		}
	}
	return true
}
