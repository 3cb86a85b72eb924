package photoz

import (
	"encoding/gob"
	"fmt"

	"repro/internal/kdtree"
	"repro/internal/pagedio"
	"repro/internal/pagestore"
	"repro/internal/table"
)

// Paged persistence of the kNN estimator: its hyper-parameters in a
// small meta stream and its reference kd-tree in a paged tree file,
// both next to the leaf-clustered reference table. A serving process
// reopens the estimator without re-extracting the spectroscopic rows
// or rebuilding the reference tree.

const photozFormatVersion = 1

type persistedEstimator struct {
	Version int
	K       int
	Degree  int
}

// Persist writes the estimator's parameters under metaName and its
// reference kd-tree under treeName on the given store.
func (e *Estimator) Persist(store *pagestore.Store, metaName, treeName string) error {
	if err := e.Tree.SavePaged(store, treeName); err != nil {
		return err
	}
	err := pagedio.WriteGob(store, metaName, func(enc *gob.Encoder) error {
		return enc.Encode(persistedEstimator{Version: photozFormatVersion, K: e.K, Degree: e.Degree})
	})
	if err != nil {
		return fmt.Errorf("photoz: persist %s: %w", metaName, err)
	}
	return nil
}

// OpenExisting reads an estimator written by Persist, loading the
// reference tree through the buffer pool and attaching it to the
// already-opened leaf-clustered reference table.
func OpenExisting(store *pagestore.Store, metaName, treeName string, refClustered *table.Table) (*Estimator, error) {
	var p persistedEstimator
	err := pagedio.ReadGob(store, metaName, func(dec *gob.Decoder) error {
		if err := dec.Decode(&p); err != nil {
			return err
		}
		if p.Version != photozFormatVersion {
			return fmt.Errorf("estimator format version %d, this binary supports %d", p.Version, photozFormatVersion)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("photoz: %s: %w", metaName, err)
	}
	tree, err := kdtree.LoadPaged(store, treeName)
	if err != nil {
		return nil, err
	}
	// Spectroscopic rows ingested after the tree was built sit in the
	// reference table's unindexed tail (searched through its page
	// zones), so the table may exceed the tree's coverage — never the
	// reverse.
	if tree.NumRows > refClustered.NumRows() {
		return nil, fmt.Errorf("photoz: %s indexes %d rows but reference table %s has %d",
			treeName, tree.NumRows, refClustered.Name(), refClustered.NumRows())
	}
	return &Estimator{Tree: tree, Table: refClustered, K: p.K, Degree: p.Degree}, nil
}
