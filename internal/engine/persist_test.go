package engine

import (
	"encoding/gob"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pagedio"
	"repro/internal/pagestore"
	"repro/internal/table"
)

// buildPersisted creates a small persisted engine directory and
// returns its path.
func buildPersisted(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t.tbl")
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]table.Record, 300)
	for i := range recs {
		recs[i].ObjID = int64(i)
		for d := 0; d < table.Dim; d++ {
			recs[i].Mags[d] = float32(15 + i%7 + d)
		}
	}
	if err := tb.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := db.PersistCatalogAt(db.Store().ArtifactGen() + 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOpenRejectsRowFormatCatalog is the format-skew regression test:
// a database whose catalog claims an older format must be refused with
// an error naming both versions — never opened by misreading row pages
// as column strips (version 1), by carrying a Voronoi cell copy nothing
// maintains any more (version 2), nor by reading an arrival-order heap
// catalog through kd-tree row ranges (version 3).
func TestOpenRejectsRowFormatCatalog(t *testing.T) {
	for _, tc := range []struct {
		version int
		wants   []string
	}{
		{1, []string{"version 1", "version 4", "row-major", "columnar"}},
		{2, []string{"version 2", "version 4", "Voronoi", "sdssgen"}},
		{3, []string{"version 3", "version 4", "heap catalog", "sdssgen"}},
	} {
		t.Run(fmt.Sprintf("v%d", tc.version), func(t *testing.T) {
			dir := buildPersisted(t)

			// Rewrite the catalog in place claiming the old format, as a
			// binary of that era would have written it.
			s, err := pagestore.OpenExisting(dir, 64)
			if err != nil {
				t.Fatal(err)
			}
			cat := persistedCatalog{Version: tc.version, Tables: []TableMeta{{
				Name: "t.tbl", Rows: 300, RecordSize: table.RecordSize, ClusteredBy: ClusteredHeap,
			}}}
			err = pagedio.WriteGob(s, GenName(CatalogFileName, s.ArtifactGen()), func(enc *gob.Encoder) error { return enc.Encode(cat) })
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			_, err = OpenExisting(dir, 64)
			if err == nil {
				t.Fatalf("open of a version-%d catalog succeeded, want refusal", tc.version)
			}
			msg := err.Error()
			for _, want := range tc.wants {
				if !strings.Contains(msg, want) {
					t.Errorf("version-skew error %q does not mention %q", msg, want)
				}
			}
		})
	}
}

// TestOpenRejectsFutureCatalogVersion covers the other direction of
// the skew: a catalog newer than this binary is refused descriptively
// rather than half-read.
func TestOpenRejectsFutureCatalogVersion(t *testing.T) {
	dir := buildPersisted(t)

	s, err := pagestore.OpenExisting(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	cat := persistedCatalog{Version: catalogFormatVersion + 1}
	err = pagedio.WriteGob(s, GenName(CatalogFileName, s.ArtifactGen()), func(enc *gob.Encoder) error { return enc.Encode(cat) })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = OpenExisting(dir, 64)
	if err == nil || !strings.Contains(err.Error(), "catalog format version") {
		t.Fatalf("open of a future-version catalog: err = %v, want version-skew error", err)
	}
}

// TestOpenRejectsRowFormatPages is the page-level second line of
// defense: a table file whose pages lack the columnar header cannot
// be opened directly, whatever the catalog says.
func TestOpenRejectsRowFormatPages(t *testing.T) {
	dir := t.TempDir()
	s, err := pagestore.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := s.CreateFile("legacy.tbl")
	if err != nil {
		t.Fatal(err)
	}
	// A row-format v1 page began with a little-endian row count, not
	// the COLP magic.
	p, err := s.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	p.Data[0] = 127
	p.MarkDirty()
	p.Release()

	_, err = table.OpenExisting(s, "legacy.tbl")
	if err == nil || !strings.Contains(err.Error(), "columnar") {
		t.Fatalf("open of row-format pages: err = %v, want columnar-format error", err)
	}
}

// TestZoneSidecarRoundTrip checks that zone maps survive persist +
// reopen and still cover the table exactly.
func TestZoneSidecarRoundTrip(t *testing.T) {
	dir := buildPersisted(t)

	db, err := OpenExisting(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tb, err := db.Table("t.tbl")
	if err != nil {
		t.Fatal(err)
	}
	zm := tb.ZoneMaps()
	if zm == nil {
		t.Fatal("reopened table has no zone maps")
	}
	if got, want := zm.NumPages(), tb.NumPages(); got != want {
		t.Fatalf("zone maps cover %d pages, table has %d", got, want)
	}
	// Spot-check a zone against the rows it covers.
	var rec table.Record
	if err := tb.Get(0, &rec); err != nil {
		t.Fatal(err)
	}
	z, ok := zm.Page(0)
	if !ok {
		t.Fatal("no zone for page 0")
	}
	for d := 0; d < table.Dim; d++ {
		v := float64(rec.Mags[d])
		if v < z.Min[d] || v > z.Max[d] {
			t.Errorf("axis %d: row value %g outside zone [%g, %g]", d, v, z.Min[d], z.Max[d])
		}
	}
}

// TestZoneSidecarStaleRejected: a sidecar describing different rows
// than the catalog fails the open instead of mispruning.
func TestZoneSidecarStaleRejected(t *testing.T) {
	dir := buildPersisted(t)

	s, err := pagestore.OpenExisting(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	pz := persistedZones{Table: "t.tbl", Rows: 123, Zones: nil}
	err = pagedio.WriteGob(s, GenName(zoneFileName("t.tbl"), s.ArtifactGen()), func(enc *gob.Encoder) error { return enc.Encode(pz) })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = OpenExisting(dir, 64)
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("open with stale zone sidecar: err = %v, want stale-sidecar error", err)
	}
}
