package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/memtable"
	"repro/internal/photoz"
	"repro/internal/table"
)

// Compaction moves acknowledged rows out of the memtable into the
// paged tables while the database keeps serving.
//
// Minor compaction (Compact) appends the memtable's rows to the
// catalog and the photo-z reference table using staged appenders: written rows stay invisible until one
// publish step under db.mu flips every table's row bound and trims the
// memtable atomically, so a concurrently opened cursor snapshot sees
// the rows either all in the memtable or all in the tables, never both
// and never neither.
//
// The indexes are maintained incrementally: appended rows land past
// each index's covered prefix as an unindexed tail rather than forcing
// a rebuild. A table clustered on a kd-tree — the catalog once the
// tree is built, and the photo-z reference — takes a batch as one
// kd-ordered run: the batch stable-sorted by the leaf each row routes
// to (appendRun), so a run's pages each cover a small piece of colour
// space. A catalog with no tree takes it in arrival order. Zone maps
// widen as the appenders run, before
// publication, so a page's zone always covers every row on it; on a
// kd-ordered run those zones come out tight, and both readers of the
// tail prune by them: the index scan classifies each tail page's zone
// like a leaf's (kd range collection), and an ordered LIMIT — a kNN
// included — reads a tail page only if its zone's best key is within
// the current k-th key (planner.Stream). The grid's clustered copy
// is not appended to: it samples the rows it was built over until the
// next full compaction rebuilds it from the catalog (documented bounded
// staleness).
//
// Durability order matters: rows are published and committed (catalog
// + zone sidecars + manifest with the new DurableSeq, through the one
// commit point, commitLocked) BEFORE the WAL rotates the covered
// records away. A crash anywhere leaves either the WAL covering the
// rows or the manifest owning them — never a gap.
//
// Full compaction (CompactFull) additionally rebuilds every built
// index at a fresh artifact generation (rebuildLocked, which every
// index build — BuildKdIndex, BuildGridIndex, BuildPhotoZ — runs too)
// and commits it: the kd-tree over the catalog's rows, rewriting the
// catalog clustered on it; then the grid from that rewritten catalog,
// and the photo-z reference from its HasZ rows — the same structures a
// from-scratch build of the same rows would produce, since the kd
// build depends on the set of rows and not on their order. A
// superseded file is unlinked by the first commit at which neither the
// catalog nor an open snapshot names it.

// Compact runs one minor compaction. It is a no-op when the memtable
// is empty. Safe to call concurrently with reads, inserts, and other
// compactions (which serialize behind compactMu).
func (db *SpatialDB) Compact() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	return db.compactLocked()
}

// compactTargets snapshots everything a minor compaction appends to.
type compactTargets struct {
	catalog *table.Table
	kd      *kdtree.Tree
	photoZ  *photoz.Estimator
	mem     *memtable.Memtable
}

// compactLocked is Compact's body; the caller holds compactMu.
func (db *SpatialDB) compactLocked() error {
	db.mu.RLock()
	tg := compactTargets{
		catalog: db.catalog,
		kd:      db.kd,
		photoZ:  db.photoZ,
		mem:     db.mem,
	}
	wal := db.wal
	db.mu.RUnlock()
	if tg.catalog == nil || tg.mem == nil {
		return nil
	}
	rows := tg.mem.Snapshot()
	if len(rows) == 0 {
		return nil
	}
	maxSeq := rows[len(rows)-1].Seq

	// Stage the appends. Staged rows advance no published bound:
	// concurrent readers cannot see them, and the column strips they
	// write live past every reader's row bound, so the writes race
	// with nothing.
	type staged struct {
		tb *table.Table
		ap *table.Appender
	}
	var apps []staged
	defer func() {
		for _, s := range apps {
			s.ap.Close()
		}
	}()
	stage := func(what string, tb *table.Table, tree *kdtree.Tree, hasZOnly bool) error {
		ap := tb.NewStagedAppender()
		apps = append(apps, staged{tb, ap})
		if err := appendRun(ap, tree, rows, hasZOnly); err != nil {
			return fmt.Errorf("core: compact %s: %w", what, err)
		}
		return nil
	}
	if err := stage("catalog", tg.catalog, tg.kd, false); err != nil {
		return err
	}
	if tg.photoZ != nil {
		if err := stage("reference table", tg.photoZ.Table, tg.photoZ.Tree, true); err != nil {
			return err
		}
	}

	// Publish: one critical section flips every table's row bound and
	// trims the memtable, so snapshots straddle nothing.
	db.mu.Lock()
	for _, s := range apps {
		s.tb.PublishRows(s.ap.Rows())
	}
	tg.mem.TrimFront(maxSeq)
	db.bumpPlanGen()
	db.mu.Unlock()

	// Commit the catalog (row counts + widened zone sidecars) and the
	// durable sequence in one manifest rename, then let the WAL drop
	// the covered records. Crash before the rename: the old manifest
	// still owns the old counts and the WAL still holds the rows. Crash
	// after: the rows are table-owned and replay skips them.
	if err := db.commitLocked(maxSeq); err != nil {
		return fmt.Errorf("core: compact: %w", err)
	}
	if wal != nil {
		if err := wal.Rotate(maxSeq); err != nil {
			return fmt.Errorf("core: compact wal rotate: %w", err)
		}
	}
	db.compactions.Add(1)
	db.compactedRows.Add(int64(len(rows)))
	return nil
}

// appendRun appends the batch (only its spectroscopic rows when
// hasZOnly) as one run. With a tree the run is ordered by the leaf
// whose cell contains each row — clamped into the domain, the routing
// a kNN probe's seed leaf uses — and by arrival within a leaf: rows
// that are neighbours in colour space land on the same pages, so the
// page zones the appender widens come out tight, and the index scan
// and the kNN tail pass skip most of a run unread. Without one the run
// keeps arrival order.
func appendRun(ap *table.Appender, tree *kdtree.Tree, rows []memtable.Row, hasZOnly bool) error {
	type routed struct{ leaf, row int }
	run := make([]routed, 0, len(rows))
	for i := range rows {
		if rec := &rows[i].Rec; rec.HasZ || !hasZOnly {
			r := routed{row: i}
			if tree != nil {
				r.leaf = tree.LeafContaining(tree.Root().Cell.ClosestPoint(rec.Point()))
			}
			run = append(run, r)
		}
	}
	if tree != nil {
		slices.SortStableFunc(run, func(a, b routed) int { return cmp.Compare(a.leaf, b.leaf) })
	}
	for _, r := range run {
		rec := rows[r.row].Rec
		if err := ap.Append(&rec); err != nil {
			return err
		}
	}
	return nil
}

// CompactFull runs a minor compaction, then rebuilds every built
// index (rebuildLocked) under the recorded build parameters — the same
// structures a fresh build over the same rows would produce, at a new
// artifact generation — and commits them. Queries keep serving
// throughout; open snapshots finish on the superseded structures, whose
// files go at the first commit after the last such snapshot releases.
func (db *SpatialDB) CompactFull() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	if err := db.compactLocked(); err != nil {
		return err
	}
	db.mu.RLock()
	spec := rebuildSpec{kd: db.kd != nil, grid: db.grid != nil, photoZ: db.photoZ != nil, buildParams: db.buildParams}
	db.mu.RUnlock()
	if !spec.kd && !spec.grid && !spec.photoZ {
		return nil
	}
	if err := db.rebuildLocked(spec); err != nil {
		return err
	}
	if err := db.commitLocked(db.eng.Store().DurableSeq()); err != nil {
		return fmt.Errorf("core: rebuild: %w", err)
	}
	db.fullCompactions.Add(1)
	return nil
}

// rebuildSpec names the structures a rebuild produces and how.
type rebuildSpec struct {
	kd, grid, photoZ bool
	buildParams
}

// rebuildLocked builds the structures spec names from the store's
// current paged rows at a new artifact generation and swaps them in;
// it is the only code that builds the kd-tree, the grid or the photo-z
// reference. The kd arm rewrites the catalog clustered on a tree built
// over its rows, and the rewrite replaces it; the grid is built from
// the catalog after that, and the photo-z reference from the catalog's
// spectroscopic rows (minor compaction appends each to both tables).
// Each build widens its domain to cover its rows. Everything is built
// off to the side at generational file names and is invisible until
// one swap under db.mu. It commits nothing: the next commit
// (commitLocked) names the new files and drops the old ones from the
// manifest, and unlinks each once no snapshot opened before the swap
// still names it; a crash before then reopens at the previous commit,
// whose next commit sweeps the files built here. The caller holds
// compactMu.
func (db *SpatialDB) rebuildLocked(spec rebuildSpec) error {
	db.mu.RLock()
	catalog := db.catalog
	db.mu.RUnlock()
	if catalog == nil {
		return fmt.Errorf("core: no catalog loaded")
	}
	store := db.eng.Store()
	gen := db.nextGenLocked()

	var (
		tree *kdtree.Tree
		ix   *grid.Index
		pz   *photoz.Estimator
		err  error
	)
	if spec.kd {
		tree, catalog, err = kdtree.Build(catalog, engine.GenName(catalogTableName, gen), kdtree.BuildParams{
			Levels: spec.kdLevels,
			Domain: db.domain,
		})
		if err == nil {
			err = tree.SavePaged(store, engine.GenName(kdIndexFile, gen))
		}
		if err != nil {
			return fmt.Errorf("core: build kd-tree: %w", err)
		}
	}
	if spec.grid {
		ix, err = buildGrid(catalog, engine.GenName(gridTableName, gen), db.domain, spec.gridBase, spec.gridSeed)
		if err == nil {
			err = ix.Persist(engine.GenName(gridIndexFile, gen))
		}
		if err != nil {
			return fmt.Errorf("core: build grid: %w", err)
		}
		p := ix.Params()
		spec.gridBase, spec.gridSeed = p.Base, p.Seed
	}
	if spec.photoZ {
		var refs []table.Record
		refs, err = photoz.ExtractReference(catalog)
		if err == nil {
			pz, err = photoz.NewEstimator(store, refs, engine.GenName(refKdTableName, gen), spec.photoZK, spec.photoZDegree)
		}
		if err == nil {
			err = pz.Persist(store, engine.GenName(photozMetaFile, gen), engine.GenName(photozTreeFile, gen))
		}
		if err != nil {
			return fmt.Errorf("core: build photoz: %w", err)
		}
	}

	// Swap the live structures and re-point the engine catalog at the
	// new physical files.
	setArtifact := func(logical string) { db.eng.SetArtifact(logical, engine.GenName(logical, gen)) }
	db.mu.Lock()
	defer db.mu.Unlock()
	if tree != nil {
		db.eng.SetTable(catalogTableName, catalog, engine.ClusteredKdLeaf)
		setArtifact(kdIndexFile)
		db.setCatalog(catalog)
		db.kd = tree
	}
	if ix != nil {
		db.eng.SetTable(gridTableName, ix.Table(), engine.ClusteredGridCell)
		setArtifact(gridIndexFile)
		db.grid = ix
	}
	if pz != nil {
		db.eng.SetTable(refKdTableName, pz.Table, engine.ClusteredKdLeaf)
		setArtifact(photozMetaFile)
		setArtifact(photozTreeFile)
		db.photoZ = pz
	}
	db.buildParams = spec.buildParams
	db.bumpPlanGen()
	return nil
}

// StartCompactor launches a background loop that runs a minor
// compaction whenever the memtable is non-empty at a tick. Stopped by
// StopCompactor (or Close).
func (db *SpatialDB) StartCompactor(every time.Duration) {
	if every <= 0 {
		every = 2 * time.Second
	}
	db.mu.Lock()
	if db.compactStop != nil {
		db.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	db.compactStop = stop
	db.mu.Unlock()
	db.compactWG.Add(1)
	go func() {
		defer db.compactWG.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if db.MemRows() > 0 {
					// Background failures must not kill serving; the rows
					// stay WAL-durable and the next tick retries.
					_ = db.Compact()
				}
			}
		}
	}()
}

// StopCompactor stops the background compaction loop, waiting for an
// in-flight compaction to finish. Idempotent; a no-op if the loop was
// never started.
func (db *SpatialDB) StopCompactor() {
	db.mu.Lock()
	stop := db.compactStop
	db.compactStop = nil
	db.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	db.compactWG.Wait()
}
