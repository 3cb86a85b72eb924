package grid

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"

	"repro/internal/pagedio"
	"repro/internal/pagestore"
	"repro/internal/table"
	"repro/internal/vec"
)

// Paged persistence of the layered grid: the layer plan and the cell
// directory serialized into a paged file next to the clustered
// table, so a serving process reopens the index by reading its
// directory pages through the buffer pool instead of re-scanning and
// re-clustering the table.

const gridFormatVersion = 1

// persistedGrid is the exported wire form of the index (the in-core
// types carry unexported fields gob cannot see).
type persistedGrid struct {
	Version   int
	Base      int
	ProjDim   int
	Seed      int64
	MaxLayers int
	Domain    vec.Box
	Layers    []persistedLayer
	Cells     []persistedCell
}

type persistedLayer struct {
	Res    int
	Points int
}

type persistedCell struct {
	Layer int
	Code  uint64
	Start uint64
	Count uint32
}

// Persist writes the index structure into the named paged file on
// the clustered table's store.
func (ix *Index) Persist(name string) error {
	p := persistedGrid{
		Version:   gridFormatVersion,
		Base:      ix.params.Base,
		ProjDim:   ix.params.ProjDim,
		Seed:      ix.params.Seed,
		MaxLayers: ix.params.MaxLayers,
		Domain:    ix.params.Domain.Clone(),
		Layers:    make([]persistedLayer, len(ix.layers)),
	}
	for i, l := range ix.layers {
		p.Layers[i] = persistedLayer{Res: l.res, Points: l.points}
	}
	p.Cells = make([]persistedCell, 0, len(ix.dir))
	for key, r := range ix.dir {
		p.Cells = append(p.Cells, persistedCell{
			Layer: key.layer, Code: key.code,
			Start: uint64(r.start), Count: r.count,
		})
	}
	// In (layer, code) order, not the directory map's: one index writes
	// one byte stream. The reader rebuilds the map, so the order is not
	// part of the format.
	slices.SortFunc(p.Cells, func(a, b persistedCell) int {
		return cmp.Or(cmp.Compare(a.Layer, b.Layer), cmp.Compare(a.Code, b.Code))
	})
	err := pagedio.WriteGob(ix.tbl.Store(), name, func(enc *gob.Encoder) error { return enc.Encode(p) })
	if err != nil {
		return fmt.Errorf("grid: persist %s: %w", name, err)
	}
	return nil
}

// OpenExisting reads an index written by Persist from the named
// paged file and attaches it to its already-opened clustered table.
// The stream checksum and the structural invariants are validated;
// of the table, only layer 1's pages are read (FirstLayer).
func OpenExisting(store *pagestore.Store, name string, clustered *table.Table) (*Index, error) {
	var p persistedGrid
	err := pagedio.ReadGob(store, name, func(dec *gob.Decoder) error {
		if err := dec.Decode(&p); err != nil {
			return err
		}
		if p.Version != gridFormatVersion {
			return fmt.Errorf("index format version %d, this binary supports %d", p.Version, gridFormatVersion)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("grid: %s: %w", name, err)
	}
	ix := &Index{
		params: Params{
			Base:      p.Base,
			ProjDim:   p.ProjDim,
			Domain:    p.Domain,
			Seed:      p.Seed,
			MaxLayers: p.MaxLayers,
		},
		tbl:    clustered,
		layers: make([]layerInfo, len(p.Layers)),
		dir:    make(map[cellKey]rowRange, len(p.Cells)),
	}
	for i, l := range p.Layers {
		ix.layers[i] = layerInfo{res: l.Res, points: l.Points}
	}
	for _, c := range p.Cells {
		ix.dir[cellKey{layer: c.Layer, code: c.Code}] = rowRange{start: table.RowID(c.Start), count: c.Count}
	}
	if err := ix.ValidateStructure(); err != nil {
		return nil, fmt.Errorf("grid: %s: loaded index is invalid: %w", name, err)
	}
	return ix.readFirstLayer()
}
