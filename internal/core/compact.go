package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/knn"
	"repro/internal/memtable"
	"repro/internal/photoz"
	"repro/internal/table"
	"repro/internal/vec"
)

// Compaction moves acknowledged rows out of the memtable into the
// paged clustered tables while the database keeps serving.
//
// Minor compaction (Compact) appends the memtable's rows to the
// catalog and every clustered table copy — kd, grid, and the photo-z
// reference's — using staged appenders: written rows stay invisible
// until one publish step under db.mu flips every table's row bound and
// trims the memtable atomically, so a concurrently opened cursor
// snapshot sees the rows either all in the memtable or all in the
// tables, never both and never neither.
//
// The indexes are maintained incrementally: appended rows land past
// each index's covered prefix as an unindexed tail rather than forcing
// a rebuild. The catalog and grid copies take a batch in arrival
// order. The kd-clustered table (and the photo-z reference's) takes it
// as a kd-ordered run — the batch stable-sorted by the leaf
// each row routes to (appendKdRun) — so a run's pages each cover a
// small piece of colour space. Zone maps widen as the appenders run,
// before publication, so a page's zone always covers every row on it;
// on a kd-ordered run those zones come out tight, and both readers of
// the tail prune by them: the index scan classifies each tail page's
// zone like a leaf's (kd range collection), and the kNN search, once
// its region-grow halts, reads a tail page only if its zone lies
// within the current k-th distance (knn.Searcher). The grid samples
// from its indexed prefix until the next full compaction (documented
// bounded staleness).
//
// Durability order matters: rows are published and persisted (catalog
// + zone sidecars + manifest with the new DurableSeq) BEFORE the WAL
// rotates the covered records away. A crash anywhere leaves either
// the WAL covering the rows or the manifest owning them — never a
// gap.
//
// Full compaction (CompactFull) additionally rebuilds every built
// index from the enlarged catalog at a fresh artifact generation —
// the same structures a from-scratch build of the same rows would
// produce — and swaps them in under db.mu. Superseded generation
// files are deleted once no cursor snapshot can still read them
// (snapRefs / pendingRetire).

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
	kdTable *table.Table
	grid    *grid.Index
	photoZ  *photoz.Estimator
	ref     *table.Table
	mem     *memtable.Memtable
}

// compactLocked is Compact's body; the caller holds compactMu.
func (db *SpatialDB) compactLocked() error {
	db.mu.RLock()
	tg := compactTargets{
		catalog: db.catalog,
		kd:      db.kd,
		kdTable: db.kdTable,
		grid:    db.grid,
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
	if tg.photoZ != nil {
		// The reference heap table rides along so its cataloged row
		// count matches the rows the estimator's searcher serves.
		if ref, err := db.eng.Table(refTableName); err == nil {
			tg.ref = ref
		}
	}

	// Stage the appends. Staged rows advance no published bound:
	// concurrent readers cannot see them, and the column strips they
	// write live past every reader's row bound, so the writes race
	// with nothing.
	type staged struct {
		tb *table.Table
		ap *table.Appender
	}
	var apps []staged
	stage := func(tb *table.Table) *table.Appender {
		ap := tb.NewStagedAppender()
		apps = append(apps, staged{tb, ap})
		return ap
	}
	catAp := stage(tg.catalog)
	var gridAp, refAp *table.Appender
	if tg.grid != nil {
		gridAp = stage(tg.grid.Table())
	}
	if tg.ref != nil {
		refAp = stage(tg.ref)
	}
	defer func() {
		for _, s := range apps {
			s.ap.Close()
		}
	}()

	for i := range rows {
		rec := rows[i].Rec
		if err := catAp.Append(&rec); err != nil {
			return fmt.Errorf("core: compact catalog: %w", err)
		}
		if gridAp != nil {
			if err := gridAp.Append(&rec); err != nil {
				return fmt.Errorf("core: compact grid table: %w", err)
			}
		}
		if rec.HasZ && refAp != nil {
			if err := refAp.Append(&rec); err != nil {
				return fmt.Errorf("core: compact reference table: %w", err)
			}
		}
	}
	// The kd-clustered copies take the batch as a kd-ordered run.
	if tg.kdTable != nil {
		if err := appendKdRun(stage(tg.kdTable), tg.kd, rows, false); err != nil {
			return fmt.Errorf("core: compact kd table: %w", err)
		}
	}
	if tg.photoZ != nil {
		s := tg.photoZ.Searcher()
		if err := appendKdRun(stage(s.Tb), s.Tree, rows, true); err != nil {
			return fmt.Errorf("core: compact reference kd table: %w", err)
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

	// Commit: persist the catalog (row counts + widened zone sidecars)
	// and the durable sequence in one manifest rename, then let the
	// WAL drop the covered records. Crash before the flush: the old
	// manifest still owns the old counts and the WAL still holds the
	// rows. Crash after: the rows are table-owned and replay skips them.
	store := db.eng.Store()
	gen := store.ArtifactGen() + 1
	if err := db.eng.PersistCatalogAt(gen); err != nil {
		return fmt.Errorf("core: compact persist: %w", err)
	}
	store.SetDurableSeq(maxSeq)
	if err := store.Flush(); err != nil {
		return fmt.Errorf("core: compact flush: %w", err)
	}
	if err := db.eng.RetireCatalogGen(gen - 1); err != nil {
		return fmt.Errorf("core: compact retire: %w", err)
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

// appendKdRun appends the batch (only its spectroscopic rows when
// hasZOnly) to a kd-clustered table as one run ordered by the tree leaf
// whose cell contains each row — clamped into the domain, the routing a
// kNN probe's seed leaf uses — and by arrival within a leaf. Rows that
// are neighbours in colour space land on the same pages, so the page
// zones the appender widens come out tight, and the index scan and the
// kNN tail pass skip most of a run unread.
func appendKdRun(ap *table.Appender, tree *kdtree.Tree, rows []memtable.Row, hasZOnly bool) error {
	type routed struct{ leaf, row int }
	root := tree.Root().Cell
	run := make([]routed, 0, len(rows))
	for i := range rows {
		if rec := &rows[i].Rec; rec.HasZ || !hasZOnly {
			run = append(run, routed{tree.LeafContaining(root.ClosestPoint(rec.Point())), i})
		}
	}
	slices.SortStableFunc(run, func(a, b routed) int { return cmp.Compare(a.leaf, b.leaf) })
	for _, r := range run {
		rec := rows[r.row].Rec
		if err := ap.Append(&rec); err != nil {
			return err
		}
	}
	return nil
}

// CompactFull runs a minor compaction and then rebuilds every built
// index from the enlarged catalog — kd-tree, grid, photo-z —
// producing the same structures a fresh build over the same rows
// would, at a new artifact generation. Queries keep serving
// throughout; open cursor snapshots finish on the superseded
// structures, whose files are deleted when the last such snapshot
// closes.
func (db *SpatialDB) CompactFull() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	if err := db.compactLocked(); err != nil {
		return err
	}

	db.mu.RLock()
	catalog := db.catalog
	hadKd, hadGrid, hadPz := db.kd != nil, db.grid != nil, db.photoZ != nil
	bp := db.buildParams
	if hadGrid {
		// Grid params round-trip persistence, so prefer the live
		// index's over the in-process record (identical when both
		// exist, and only the former survives a cold open).
		p := db.grid.Params()
		bp.gridBase, bp.gridSeed = p.Base, p.Seed
	}
	var pzK, pzDegree int
	if hadPz {
		pzK, pzDegree = db.photoZ.K, db.photoZ.Degree
	}
	domain := db.domain
	db.mu.RUnlock()
	if catalog == nil {
		return fmt.Errorf("core: no catalog loaded")
	}
	if !hadKd && !hadGrid && !hadPz {
		return nil
	}

	store := db.eng.Store()
	gen := store.ArtifactGen() + 1

	// Rebuild off to the side at generational file names. The catalog
	// is read-shared with concurrent queries; nothing here is visible
	// until the swap below.
	var (
		newKd      *kdtree.Tree
		newKdTable *table.Table
		newGrid    *grid.Index
		newRef     *table.Table
		newPz      *photoz.Estimator
	)
	if hadKd {
		tree, clustered, err := kdtree.Build(catalog, engine.GenName(kdTableName, gen), kdtree.BuildParams{
			Levels: bp.kdLevels,
			Domain: domain,
		})
		if err != nil {
			return fmt.Errorf("core: full compact kd: %w", err)
		}
		if err := tree.SavePaged(store, engine.GenName(kdIndexFile, gen)); err != nil {
			return fmt.Errorf("core: full compact kd: %w", err)
		}
		newKd, newKdTable = tree, clustered
	}
	if hadGrid {
		dom3 := vec.NewBox(domain.Min[:3], domain.Max[:3])
		p := grid.DefaultParams(dom3, bp.gridSeed)
		if bp.gridBase > 0 {
			p.Base = bp.gridBase
		}
		ix, err := grid.Build(catalog, engine.GenName(gridTableName, gen), p)
		if err != nil {
			return fmt.Errorf("core: full compact grid: %w", err)
		}
		if err := ix.Persist(engine.GenName(gridIndexFile, gen)); err != nil {
			return fmt.Errorf("core: full compact grid: %w", err)
		}
		newGrid = ix
	}
	if hadPz {
		ref, err := photoz.ExtractReference(catalog, store, engine.GenName(refTableName, gen))
		if err != nil {
			return fmt.Errorf("core: full compact photoz: %w", err)
		}
		est, err := photoz.NewEstimator(ref, engine.GenName(refKdTableName, gen), pzK, pzDegree)
		if err != nil {
			return fmt.Errorf("core: full compact photoz: %w", err)
		}
		if err := est.Persist(store, engine.GenName(photozMetaFile, gen), engine.GenName(photozTreeFile, gen)); err != nil {
			return fmt.Errorf("core: full compact photoz: %w", err)
		}
		newRef, newPz = ref, est
	}

	// Swap the live structures and re-point the engine catalog at the
	// new physical files. Old files are queued for retirement, not
	// deleted: a cursor snapshot opened before this point still reads
	// them.
	var doomed []string
	replace := func(logical string, t *table.Table, orderedBy string) error {
		old, err := db.eng.ReplaceTable(logical, t, orderedBy)
		if err != nil {
			return err
		}
		if old.Name() != t.Name() {
			doomed = append(doomed, old.Name())
		}
		return nil
	}
	moveArtifact := func(logical string) {
		old := db.eng.ArtifactFile(logical)
		db.eng.SetArtifact(logical, engine.GenName(logical, gen))
		if old != engine.GenName(logical, gen) {
			doomed = append(doomed, old)
		}
	}
	db.mu.Lock()
	var swapErr error
	if newKd != nil {
		swapErr = replace(kdTableName, newKdTable, engine.ClusteredKdLeaf)
		if swapErr == nil {
			moveArtifact(kdIndexFile)
			db.kd, db.kdTable = newKd, newKdTable
			db.knnS = knn.NewSearcher(newKd, newKdTable)
		}
	}
	if swapErr == nil && newGrid != nil {
		swapErr = replace(gridTableName, newGrid.Table(), engine.ClusteredGridCell)
		if swapErr == nil {
			moveArtifact(gridIndexFile)
			db.grid = newGrid
		}
	}
	if swapErr == nil && newPz != nil {
		swapErr = replace(refTableName, newRef, engine.ClusteredHeap)
		if swapErr == nil {
			swapErr = replace(refKdTableName, newPz.Searcher().Tb, engine.ClusteredKdLeaf)
		}
		if swapErr == nil {
			moveArtifact(photozMetaFile)
			moveArtifact(photozTreeFile)
			db.photoZ = newPz
		}
	}
	if swapErr == nil {
		db.bumpPlanGen()
	}
	db.mu.Unlock()
	if swapErr != nil {
		return fmt.Errorf("core: full compact swap: %w", swapErr)
	}

	// Commit the new generation, then retire the old one's catalog
	// files immediately (never read by cursors) and the swapped-out
	// table/index files once no snapshot holds them.
	if err := db.eng.PersistCatalogAt(gen); err != nil {
		return fmt.Errorf("core: full compact persist: %w", err)
	}
	if err := store.Flush(); err != nil {
		return fmt.Errorf("core: full compact flush: %w", err)
	}
	if err := db.eng.RetireCatalogGen(gen - 1); err != nil {
		return fmt.Errorf("core: full compact retire: %w", err)
	}
	db.queueRetire(doomed)
	db.fullCompactions.Add(1)
	return nil
}

// queueRetire schedules superseded physical files for deletion. They
// go immediately when no cursor snapshot is open, otherwise when the
// last open snapshot releases.
func (db *SpatialDB) queueRetire(names []string) {
	if len(names) == 0 {
		return
	}
	db.retireMu.Lock()
	db.pendingRetire = append(db.pendingRetire, names...)
	db.retireMu.Unlock()
	if db.snapRefs.Load() == 0 {
		db.drainRetired()
	}
}

// drainRetired deletes every queued superseded file still present.
func (db *SpatialDB) drainRetired() {
	db.retireMu.Lock()
	doomed := db.pendingRetire
	db.pendingRetire = nil
	db.retireMu.Unlock()
	if len(doomed) == 0 {
		return
	}
	store := db.eng.Store()
	var present []string
	for _, n := range doomed {
		if store.HasFile(n) {
			present = append(present, n)
		}
	}
	if len(present) == 0 {
		return
	}
	// Deletion failures are not fatal to serving; the files are
	// unreferenced and a later drain (or the next open) retries.
	if err := store.DeleteFiles(present...); err != nil {
		db.retireMu.Lock()
		db.pendingRetire = append(db.pendingRetire, present...)
		db.retireMu.Unlock()
	}
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
