package engine

import (
	"encoding/gob"
	"fmt"
	"sort"
	"strings"

	"repro/internal/pagedio"
	"repro/internal/pagestore"
	"repro/internal/table"
)

// Catalog persistence: the engine's table directory — each table's
// name, schema (record size), exact row count, clustered-order
// identity, and whether a zone-map sidecar exists — serialized into
// the paged system.catalog file. A reopened engine reads the catalog
// once and opens every table without touching a single table page
// (the row counts come from the catalog, not from re-reading page
// headers), which is what makes cold open cost manifest + catalog +
// index + sidecar pages only.

// CatalogFileName is the paged file holding the persisted catalog.
const CatalogFileName = "system.catalog"

// GenName returns the physical file name of an artifact at a given
// generation: the bare base name for generation 0 (the legacy layout,
// still readable), "base@N" otherwise. Rewritten artifacts — the
// catalog, zone sidecars, rebuilt clustered tables and index
// serializations — are written to a fresh generation's name and
// committed by the single manifest rename that bumps the store's
// ArtifactGen, so a crash mid-rewrite leaves the previous generation
// fully intact: there is no in-place overwrite anywhere on the
// persistence path.
func GenName(base string, gen uint64) string {
	if gen == 0 {
		return base
	}
	return fmt.Sprintf("%s@%d", base, gen)
}

// GenBase returns the base name of a physical file name: GenName's
// inverse with the generation dropped.
func GenBase(name string) string {
	base, _, _ := strings.Cut(name, "@")
	return base
}

// catalogFormatVersion 4 is the one-copy catalog: table files hold
// column strips (table/colpage.go), each table may carry a zone-map
// sidecar, and once a kd-tree is built the catalog itself is the table
// clustered on its leaves — no second copy in arrival order beside it.
// Version 3 databases keep that arrival-order heap under the catalog's
// name and the clustered copy beside it, so a reopened v3 catalog read
// through kd row ranges would return the wrong rows; version 2 ones
// also carry a Voronoi cell copy; version 1 ones hold row-major 64-byte
// record pages. Opening across any of these boundaries is refused with
// a descriptive error rather than misreading pages or rows.
const catalogFormatVersion = 4

// catalogVersionMeaning names what each known on-disk version stored,
// for the skew error message.
func catalogVersionMeaning(v int) string {
	switch v {
	case 1:
		return "row-major record pages"
	case 2:
		return "columnar strip pages with zone-map sidecars and a Voronoi cell copy"
	case 3:
		return "columnar strip pages with zone-map sidecars, a heap catalog beside its kd-clustered copy"
	case 4:
		return "columnar strip pages with zone-map sidecars, one catalog copy clustered on kd-tree leaves"
	}
	return "unknown layout"
}

// Clustered-order identities recorded per table.
const (
	ClusteredHeap     = "heap"        // load order (no clustering)
	ClusteredKdLeaf   = "kdtree-leaf" // §3.2 post-order leaf ranges
	ClusteredGridCell = "grid-cell"   // §3.1 (layer, cell) ranges
)

// TableMeta is one catalog entry.
type TableMeta struct {
	Name        string
	Rows        uint64
	RecordSize  int
	ClusteredBy string
	// HasZones records that a zone-map sidecar was persisted alongside
	// the table.
	HasZones bool
	// File is the physical paged-file name backing the table; empty
	// means Name itself (the legacy and common case — the two diverge
	// only after a generational rebuild, when a table's logical name
	// stays put while its storage moves to a name@gen file).
	File string
	// ZoneFile is the physical sidecar file name; empty means the
	// legacy <name>.zones.
	ZoneFile string
}

type persistedCatalog struct {
	Version int
	Tables  []TableMeta
	// Artifacts maps logical artifact names (index serializations and
	// similar non-table files) to their physical file names, so a
	// reopened process can find structures whose storage moved to a
	// generational file. Absent entries mean the logical name is the
	// physical name.
	Artifacts map[string]string
}

// persistedZones is the gob payload of one zone-map sidecar. Gob
// matches struct fields by name, so a sidecar written when PageZone
// also held ra/dec bounds decodes here with those fields dropped, and
// a binary of that time reads this one's zones with no sky bounds —
// for reading only: its widen took that for an empty page, so a row it
// appended would shrink the page's sky box to that row
// (TestNewSidecarIsReadOnlyForLegacyBinary).
type persistedZones struct {
	Table string
	Rows  uint64
	Zones []table.PageZone
}

// ZoneFileName names a table's zone-map sidecar file.
func ZoneFileName(tableName string) string { return tableName + ".zones" }

// PersistCatalogAt writes the catalog of registered tables into the
// catalog file of generation gen, and each table's zone maps into a
// checksummed paged sidecar at the same generation, then stamps the
// store's ArtifactGen with gen. It returns every file that catalog
// names: itself, each table's file and sidecar, each artifact. Nothing
// is overwritten in place and nothing is committed yet: the caller
// commits exactly those files with Store.Commit, after writing its own
// artifacts at the same generation (core's one commit point), so a
// crash at any byte leaves the previous generation intact.
func (db *DB) PersistCatalogAt(gen uint64) ([]string, error) {
	db.mu.RLock()
	cat := persistedCatalog{Version: catalogFormatVersion, Artifacts: make(map[string]string, len(db.artifacts))}
	named := []string{GenName(CatalogFileName, gen)}
	for k, v := range db.artifacts {
		cat.Artifacts[k] = v
		named = append(named, v)
	}
	tables := make(map[string]*table.Table, len(db.tables))
	for name, t := range db.tables {
		tables[name] = t
		clustered := db.clusteredBy[name]
		if clustered == "" {
			clustered = ClusteredHeap
		}
		cat.Tables = append(cat.Tables, TableMeta{
			Name:        name,
			Rows:        t.NumRows(),
			RecordSize:  table.RecordSize,
			ClusteredBy: clustered,
			HasZones:    t.ZoneMaps() != nil,
			File:        t.Name(),
			ZoneFile:    GenName(ZoneFileName(name), gen),
		})
	}
	db.mu.RUnlock()
	sort.Slice(cat.Tables, func(i, j int) bool { return cat.Tables[i].Name < cat.Tables[j].Name })

	for i := range cat.Tables {
		m := &cat.Tables[i]
		named = append(named, m.File)
		if !m.HasZones {
			m.ZoneFile = ""
			continue
		}
		named = append(named, m.ZoneFile)
		t := tables[m.Name]
		zm := t.ZoneMaps()
		// A sidecar that does not cover the table exactly would misprune
		// queries after reopen; refuse to persist it.
		if err := zm.Validate(t.NumPages()); err != nil {
			return nil, fmt.Errorf("engine: persist zone maps for %q: %w", m.Name, err)
		}
		pz := persistedZones{Table: m.Name, Rows: m.Rows, Zones: zm.Snapshot()}
		err := pagedio.WriteGob(db.store, m.ZoneFile, func(enc *gob.Encoder) error { return enc.Encode(pz) })
		if err != nil {
			return nil, fmt.Errorf("engine: persist zone maps for %q: %w", m.Name, err)
		}
	}

	err := pagedio.WriteGob(db.store, named[0], func(enc *gob.Encoder) error { return enc.Encode(cat) })
	if err != nil {
		return nil, fmt.Errorf("engine: persist catalog: %w", err)
	}
	db.store.SetArtifactGen(gen)
	return named, nil
}

// OpenExisting opens a previously persisted engine at dir: the page
// store is validated against its manifest, the catalog is read from
// system.catalog, every cataloged table is opened with its persisted
// row count and clustered-order identity — no table page is read —
// and each table's zone-map sidecar is loaded and validated against
// the table it describes. Version skew, checksum corruption, and
// schema mismatches are descriptive errors, never silent fallbacks.
func OpenExisting(dir string, poolPages int) (*DB, error) {
	s, err := pagestore.OpenExisting(dir, poolPages)
	if err != nil {
		return nil, err
	}
	db := &DB{
		store:       s,
		tables:      make(map[string]*table.Table),
		clusteredBy: make(map[string]string),
		artifacts:   make(map[string]string),
	}
	// The manifest's artifact generation names the catalog file; a
	// crash can never desynchronize the two because both commit in the
	// same manifest rename.
	catName := GenName(CatalogFileName, s.ArtifactGen())
	if !s.HasFile(catName) {
		s.Close()
		return nil, fmt.Errorf("engine: %s has no %s: database was never persisted (call PersistCatalogAt / SpatialDB.Persist after building)", dir, catName)
	}
	var cat persistedCatalog
	err = pagedio.ReadGob(s, catName, func(dec *gob.Decoder) error {
		if err := dec.Decode(&cat); err != nil {
			return err
		}
		if cat.Version != catalogFormatVersion {
			return fmt.Errorf("catalog format version %d (%s), this binary supports only version %d (%s): rebuild the data directory with sdssgen",
				cat.Version, catalogVersionMeaning(cat.Version), catalogFormatVersion, catalogVersionMeaning(catalogFormatVersion))
		}
		return nil
	})
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("engine: catalog: %w", err)
	}
	for k, v := range cat.Artifacts {
		db.artifacts[k] = v
	}
	for _, m := range cat.Tables {
		if m.RecordSize != table.RecordSize {
			s.Close()
			return nil, fmt.Errorf("engine: table %q was written with %d-byte records, this binary uses %d: incompatible schema",
				m.Name, m.RecordSize, table.RecordSize)
		}
		file := m.File
		if file == "" {
			file = m.Name
		}
		t, err := table.OpenWithRows(s, file, m.Rows)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("engine: open cataloged table: %w", err)
		}
		if m.HasZones {
			if err := loadZoneSidecar(s, t, m); err != nil {
				s.Close()
				return nil, err
			}
		}
		db.tables[m.Name] = t
		db.clusteredBy[m.Name] = m.ClusteredBy
	}
	return db, nil
}

// loadZoneSidecar reads, validates, and attaches one table's zone
// maps. Any inconsistency between sidecar and table — missing file,
// row-count skew, page-count skew, non-finite bounds — fails the
// open: a wrong zone map would silently drop rows from query answers.
func loadZoneSidecar(s *pagestore.Store, t *table.Table, m TableMeta) error {
	name := m.ZoneFile
	if name == "" {
		name = ZoneFileName(m.Name)
	}
	if !s.HasFile(name) {
		return fmt.Errorf("engine: table %q: catalog records a zone-map sidecar but %s is missing", m.Name, name)
	}
	var pz persistedZones
	err := pagedio.ReadGob(s, name, func(dec *gob.Decoder) error { return dec.Decode(&pz) })
	if err != nil {
		return fmt.Errorf("engine: zone maps for %q: %w", m.Name, err)
	}
	if pz.Table != m.Name || pz.Rows != m.Rows {
		return fmt.Errorf("engine: zone sidecar %s describes table %q with %d rows, catalog says %q with %d rows: stale sidecar",
			name, pz.Table, pz.Rows, m.Name, m.Rows)
	}
	if err := t.AttachZoneMaps(table.ZoneMapsFrom(pz.Zones)); err != nil {
		return fmt.Errorf("engine: zone maps for %q: %w", m.Name, err)
	}
	return nil
}
