package kdtree

import (
	"encoding/gob"
	"fmt"

	"repro/internal/pagedio"
	"repro/internal/pagestore"
)

// The tree is an offline artifact in the paper (12 hours of build
// time over 270M rows); persisting it alongside the clustered table
// lets query sessions skip the rebuild. The serialized form is a gob
// stream with a version header — the node array and the leaf map —
// in a paged file on the store itself, mirroring the paper where
// the kd-tree is persisted *with* the database and its node pages
// flow through the same buffer pool the query accounting reads: a
// tree loaded through LoadPaged charges its page reads to
// pagestore.Stats, so cold-open index I/O is costed like any other
// query.

const treeFormatVersion = 1

type treeHeader struct {
	Version int
	Dim     int
	Levels  int
	NumRows uint64
}

// SavePaged writes the tree into the named paged file on the store,
// creating or truncating it.
func (t *Tree) SavePaged(store *pagestore.Store, name string) error {
	err := pagedio.WriteGob(store, name, func(enc *gob.Encoder) error {
		if err := enc.Encode(treeHeader{Version: treeFormatVersion, Dim: t.Dim, Levels: t.Levels, NumRows: t.NumRows}); err != nil {
			return fmt.Errorf("encode header: %w", err)
		}
		if err := enc.Encode(t.Nodes); err != nil {
			return fmt.Errorf("encode nodes: %w", err)
		}
		if err := enc.Encode(t.LeafNodes); err != nil {
			return fmt.Errorf("encode leaf map: %w", err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("kdtree: persist %s: %w", name, err)
	}
	return nil
}

// LoadPaged reads a tree written by SavePaged, verifies the stream
// checksum, and validates the structural invariants before returning
// it. Every page read goes through the buffer pool.
func LoadPaged(store *pagestore.Store, name string) (*Tree, error) {
	var t *Tree
	err := pagedio.ReadGob(store, name, func(dec *gob.Decoder) error {
		var h treeHeader
		if err := dec.Decode(&h); err != nil {
			return fmt.Errorf("decode header: %w", err)
		}
		if h.Version != treeFormatVersion {
			return fmt.Errorf("tree format version %d, this binary supports %d", h.Version, treeFormatVersion)
		}
		t = &Tree{Dim: h.Dim, Levels: h.Levels, NumRows: h.NumRows}
		if err := dec.Decode(&t.Nodes); err != nil {
			return fmt.Errorf("decode nodes: %w", err)
		}
		if err := dec.Decode(&t.LeafNodes); err != nil {
			return fmt.Errorf("decode leaf map: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("kdtree: %s: %w", name, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("kdtree: %s: loaded tree is invalid: %w", name, err)
	}
	return t, nil
}
