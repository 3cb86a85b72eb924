package core

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/photoz"
	"repro/internal/sky"
)

// The build-once / serve-many lifecycle. The paper's indexes are
// persisted inside SQL Server and survive restarts; this file gives
// the reproduction the same property. Every index build writes its
// structures — the magnitude table once, clustered on the kd-tree's
// leaves when the tree is built, the kd-tree, the grid and its
// directory, the photo-z reference and estimator — into paged files at
// its own generation (rebuildLocked). Persist commits them with the
// engine catalog and the checksummed store manifest, as every
// compaction does, and OpenExisting reassembles a fully serving
// SpatialDB from those files alone: no ingest, no index construction,
// no table scan. Index structures are
// deserialized through the buffer pool, so the cost of opening them
// is visible in pagestore.Stats exactly like the paper's
// index-page reads.

// Well-known logical names of the persistent layout. A rebuilt table
// or index keeps its logical name while its storage moves to a
// generational name@N file (engine.GenName).
const (
	catalogTableName = "magnitude.tbl"
	kdIndexFile      = "magnitude.kd.idx"
	gridTableName    = "magnitude.grid.tbl"
	gridIndexFile    = "magnitude.grid.idx"
	refKdTableName   = "reference.kd.tbl"
	photozTreeFile   = "reference.kd.idx"
	photozMetaFile   = "reference.pz.idx"
)

// layoutFiles are the logical names of the files a store writes beside
// its catalog file. Every generation of one, and of a table's zone
// sidecar, is the store's own: a commit sweeps those it does not name,
// even of an index the committed catalog does not hold, as a build's
// files are when a crash comes before the commit that would name them.
var layoutFiles = []string{
	catalogTableName, kdIndexFile, gridTableName, gridIndexFile, refKdTableName, photozTreeFile, photozMetaFile,
	engine.ZoneFileName(catalogTableName), engine.ZoneFileName(gridTableName), engine.ZoneFileName(refKdTableName),
}

// Persist commits every built structure through the one commit point
// (commitLocked). Each build already wrote its files at its own
// generation; the commit writes the engine catalog that names them.
// After Persist returns, OpenExisting on the same directory reassembles
// the database in a fresh process.
func (db *SpatialDB) Persist() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()
	db.mu.RLock()
	catalog := db.catalog
	db.mu.RUnlock()
	if catalog == nil {
		return fmt.Errorf("core: nothing to persist: no catalog loaded")
	}
	return db.commitLocked(db.eng.Store().DurableSeq())
}

// commitGap, when set, runs inside every commit between the writes of
// its generation and the manifest rename: the window a test takes a
// crash image in, or closes a cursor in.
var commitGap func()

// commitLocked is the one commit point: the only path by which a
// database writes its manifest, reached from Compact, CompactFull and
// Persist. Every build since the last commit has written its artifacts
// at its own generation and recorded them in the engine catalog;
// commitLocked writes the catalog at a new generation beside them,
// stages durableSeq, and commits (pagestore.Store.Commit: drain allocs,
// flush dirty pages, sync, rename in a manifest listing exactly the
// files that catalog names, then unlink). Liveness is a set difference:
// a file lives while the committed catalog or an open snapshot names
// it, and every other file of a base the catalog names a generation of,
// or of a layout file, goes — one this commit dropped, one a release
// left since the last commit, or debris a crash or an earlier session
// left on disk. The caller holds compactMu.
func (db *SpatialDB) commitLocked(durableSeq uint64) error {
	named, err := db.eng.PersistCatalogAt(db.nextGenLocked())
	if err != nil {
		return err
	}
	store := db.eng.Store()
	store.SetDurableSeq(durableSeq)
	if commitGap != nil {
		commitGap()
	}
	bases := make(map[string]bool, len(named)+len(layoutFiles))
	for _, n := range slices.Concat(named, layoutFiles) {
		bases[engine.GenBase(n)] = true
	}
	return store.Commit(named, func(name string) bool {
		db.pinMu.Lock()
		defer db.pinMu.Unlock()
		return bases[engine.GenBase(name)] && db.pins[name] == 0
	})
}

// nextGenLocked picks the generation the next build or commit writes
// at: past the committed one, and past any a build or a failed attempt
// in this session already created files for, since a name once created
// is never written again. The caller holds compactMu.
func (db *SpatialDB) nextGenLocked() uint64 {
	db.gen = max(db.gen, db.eng.Store().ArtifactGen()) + 1
	return db.gen
}

// OpenExisting opens a database previously built and persisted at
// cfg.Dir, validating the manifest superblock and every loaded
// structure, and reassembling whichever indexes were persisted. It
// performs zero index construction: the only page reads are the
// engine catalog and the index structure files themselves. Indexes
// that were never built stay absent and report their usual
// "not built" errors when a query demands them.
func OpenExisting(cfg Config) (*SpatialDB, error) {
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 4096
	}
	eng, err := engine.OpenExisting(cfg.Dir, cfg.PoolPages)
	if err != nil {
		return nil, err
	}
	db := &SpatialDB{
		eng:    eng,
		domain: sky.Domain(),
		dir:    cfg.Dir,
	}
	db.initCache(cfg)
	fail := func(err error) (*SpatialDB, error) {
		eng.Close()
		return nil, err
	}
	catalog, err := eng.Table(catalogTableName)
	if err != nil {
		return fail(fmt.Errorf("core: %s holds no catalog table %q: database not built (run sdssgen, or build and Persist)", cfg.Dir, catalogTableName))
	}
	db.setCatalog(catalog)
	store := eng.Store()
	// artifact resolves a logical artifact name to its committed file
	// and records the pair, so every later commit names the file: an
	// older binary wrote some artifacts under their bare logical name
	// and recorded nothing.
	artifact := func(logical string) (string, bool) {
		file := eng.ArtifactFile(logical)
		ok := store.HasFile(file)
		if ok {
			eng.SetArtifact(logical, file)
		}
		return file, ok
	}

	if kdFile, ok := artifact(kdIndexFile); ok {
		if by := eng.ClusteredBy(catalogTableName); by != engine.ClusteredKdLeaf {
			return fail(fmt.Errorf("core: kd-tree index file present but catalog %q is clustered by %q, not %q", catalogTableName, by, engine.ClusteredKdLeaf))
		}
		tree, err := kdtree.LoadPaged(store, kdFile)
		if err != nil {
			return fail(err)
		}
		// Minor compactions append ingested rows past the indexed
		// prefix without rebuilding the tree, so the catalog may be
		// larger than the tree's coverage — never smaller.
		if tree.NumRows > catalog.NumRows() {
			return fail(fmt.Errorf("core: kd-tree indexes %d rows but %s has %d", tree.NumRows, catalogTableName, catalog.NumRows()))
		}
		db.kd = tree
	}

	if gridFile, ok := artifact(gridIndexFile); ok {
		clustered, err := eng.Table(gridTableName)
		if err != nil {
			return fail(fmt.Errorf("core: grid index file present but clustered table %q is not cataloged: %w", gridTableName, err))
		}
		ix, err := grid.OpenExisting(store, gridFile, clustered)
		if err != nil {
			return fail(err)
		}
		db.grid = ix
		p := ix.Params()
		db.buildParams.gridBase, db.buildParams.gridSeed = p.Base, p.Seed
	}

	if pzMeta, ok := artifact(photozMetaFile); ok {
		refClustered, err := eng.Table(refKdTableName)
		if err != nil {
			return fail(fmt.Errorf("core: photo-z estimator present but reference table %q is not cataloged: %w", refKdTableName, err))
		}
		pzTree, _ := artifact(photozTreeFile)
		est, err := photoz.OpenExisting(store, pzMeta, pzTree, refClustered)
		if err != nil {
			return fail(err)
		}
		db.photoZ = est
		db.buildParams.photoZK, db.buildParams.photoZDegree = est.K, est.Degree
	}
	if err := db.openIngest(); err != nil {
		return fail(err)
	}
	return db, nil
}
