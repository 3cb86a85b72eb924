package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/knn"
	"repro/internal/photoz"
	"repro/internal/sky"
)

// The build-once / serve-many lifecycle. The paper's indexes are
// persisted inside SQL Server and survive restarts; this file gives
// the reproduction the same property. Persist writes every built
// structure — the catalog of tables (the magnitude table once,
// clustered on the kd-tree's leaves when the tree is built), the
// kd-tree, the grid directory, the photo-z estimator — into paged
// files plus the checksummed store manifest, and OpenExisting reassembles a
// fully serving SpatialDB from those files alone: no ingest, no
// index construction, no table scan. Index structures are
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

// Persist writes every built structure to disk: per-index paged
// serializations, the engine catalog at a new generation, and finally
// the store manifest (via Flush), after which the previous
// generation's catalog files are retired. After Persist returns,
// OpenExisting on the same directory reassembles the database in a
// fresh process.
func (db *SpatialDB) Persist() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.catalog == nil {
		return fmt.Errorf("core: nothing to persist: no catalog loaded")
	}
	store := db.eng.Store()
	// Index gobs are addressed by logical name; full compaction moves
	// them to generational physical files, so write wherever the
	// catalog says each one currently lives. The kd-tree is not among
	// them: every build of it is committed with its generation.
	if db.grid != nil {
		if err := db.grid.Persist(db.eng.ArtifactFile(gridIndexFile)); err != nil {
			return err
		}
	}
	if db.photoZ != nil {
		if err := db.photoZ.Persist(store, db.eng.ArtifactFile(photozMetaFile), db.eng.ArtifactFile(photozTreeFile)); err != nil {
			return err
		}
	}
	gen := store.ArtifactGen() + 1
	if err := db.eng.PersistCatalogAt(gen); err != nil {
		return err
	}
	if err := store.Flush(); err != nil {
		return err
	}
	return db.eng.RetireCatalogGen(gen - 1)
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

	if kdFile := eng.ArtifactFile(kdIndexFile); store.HasFile(kdFile) {
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
		db.knnS = knn.NewSearcher(tree, catalog)
	}

	if gridFile := eng.ArtifactFile(gridIndexFile); store.HasFile(gridFile) {
		clustered, err := eng.Table(gridTableName)
		if err != nil {
			return fail(fmt.Errorf("core: grid index file present but clustered table %q is not cataloged: %w", gridTableName, err))
		}
		ix, err := grid.OpenExisting(store, gridFile, clustered)
		if err != nil {
			return fail(err)
		}
		db.grid = ix
	}

	if pzMeta := eng.ArtifactFile(photozMetaFile); store.HasFile(pzMeta) {
		refClustered, err := eng.Table(refKdTableName)
		if err != nil {
			return fail(fmt.Errorf("core: photo-z estimator present but reference table %q is not cataloged: %w", refKdTableName, err))
		}
		est, err := photoz.OpenExisting(store, pzMeta, eng.ArtifactFile(photozTreeFile), refClustered)
		if err != nil {
			return fail(err)
		}
		db.photoZ = est
	}
	if err := db.openIngest(); err != nil {
		return fail(err)
	}
	return db, nil
}
