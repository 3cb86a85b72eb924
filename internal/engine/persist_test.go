package engine

import (
	"encoding/gob"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pagedio"
	"repro/internal/pagestore"
	"repro/internal/table"
	"repro/internal/vec"
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
		// Each page sits 3 mag higher than the one before, so a
		// magnitude cut prunes some pages and not others.
		for d := 0; d < table.Dim; d++ {
			recs[i].Mags[d] = float32(15 + i%7 + 3*(i/table.RecordsPerPage) + d)
		}
		recs[i].Ra, recs[i].Dec = float32(i), float32(i%90)
	}
	if err := tb.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PersistCatalogAt(db.Store().ArtifactGen() + 1); err != nil {
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

// legacyPageZone and legacyZones are the zone sidecar's gob payload
// as written when a page zone also held an ra/dec box. Gob matches
// fields by name, so the two layouts must read each other.
type legacyPageZone struct {
	Min, Max       [table.Dim]float64
	SkyMin, SkyMax [2]float64
	Sky            bool
}

type legacyZones struct {
	Table string
	Rows  uint64
	Zones []legacyPageZone
}

// TestZoneSidecarRoundTrip checks that zone maps survive persist +
// reopen and still cover the table exactly, and that the sidecar
// reads across the layout change that dropped the ra/dec box: a
// sidecar in the old layout opens, validates and prunes magnitude
// cuts exactly like the new one, and an old binary reads a new
// sidecar with no sky bounds (Sky false) — safe for its reads only,
// see TestNewSidecarIsReadOnlyForLegacyBinary.
func TestZoneSidecarRoundTrip(t *testing.T) {
	dir := buildPersisted(t)

	zones, profile := openZones(t, dir)
	if len(zones) != 3 {
		t.Fatalf("zone maps cover %d pages, want 3", len(zones))
	}

	// The new layout, read by a binary that still has sky bounds.
	s, err := pagestore.OpenExisting(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	name := GenName(ZoneFileName("t.tbl"), s.ArtifactGen())
	var legacy legacyZones
	if err := pagedio.ReadGob(s, name, func(dec *gob.Decoder) error { return dec.Decode(&legacy) }); err != nil {
		t.Fatal(err)
	}
	if legacy.Table != "t.tbl" || legacy.Rows != 300 || len(legacy.Zones) != len(zones) {
		t.Fatalf("legacy decode: table %q rows %d zones %d", legacy.Table, legacy.Rows, len(legacy.Zones))
	}
	for pg, lz := range legacy.Zones {
		if lz.Sky {
			t.Errorf("page %d: legacy decode of a new sidecar has Sky true", pg)
		}
		if lz.Min != zones[pg].Min || lz.Max != zones[pg].Max {
			t.Errorf("page %d: legacy decode has box %v..%v, want %v..%v", pg, lz.Min, lz.Max, zones[pg].Min, zones[pg].Max)
		}
	}

	// Rewrite the sidecar in the old layout, sky bounds included, from
	// a fresh session: a store never rewrites a file it has open.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = pagestore.OpenExisting(dir, 64); err != nil {
		t.Fatal(err)
	}
	for pg := range legacy.Zones {
		lo := float64(pg * table.RecordsPerPage)
		legacy.Zones[pg].SkyMin = [2]float64{lo, 0}
		legacy.Zones[pg].SkyMax = [2]float64{lo + table.RecordsPerPage - 1, 89}
		legacy.Zones[pg].Sky = true
	}
	if err := pagedio.WriteGob(s, name, func(enc *gob.Encoder) error { return enc.Encode(legacy) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	oldZones, oldProfile := openZones(t, dir)
	if fmt.Sprint(oldZones) != fmt.Sprint(zones) {
		t.Errorf("old-layout sidecar opens as %v, want %v", oldZones, zones)
	}
	if oldProfile != profile {
		t.Errorf("old-layout sidecar prunes as %s, want %s", oldProfile, profile)
	}
}

// TestNewSidecarIsReadOnlyForLegacyBinary pins why a binary from
// before the sky bounds went may only read a directory this one wrote.
// It decodes a new sidecar with Sky false, and its widen took Sky false
// to mean "no rows yet": the first row appended to the partial last page
// (minor compaction resumes appending there) reset that page's sky box
// to the new row alone. Its sky cut then judged the page Outside for a
// box holding the page's older rows and dropped them, and saved the
// shrunk box in its next sidecar.
func TestNewSidecarIsReadOnlyForLegacyBinary(t *testing.T) {
	dir := buildPersisted(t)
	s, err := pagestore.OpenExisting(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var legacy legacyZones
	name := GenName(ZoneFileName("t.tbl"), s.ArtifactGen())
	if err := pagedio.ReadGob(s, name, func(dec *gob.Decoder) error { return dec.Decode(&legacy) }); err != nil {
		t.Fatal(err)
	}
	last := len(legacy.Zones) - 1
	first := last * table.RecordsPerPage
	if int(legacy.Rows) >= first+table.RecordsPerPage {
		t.Fatalf("fixture's last page is full (%d rows): nothing would append to it", legacy.Rows)
	}

	// The sky half of that binary's widen, for one appended row.
	z := &legacy.Zones[last]
	ra, dec := float64(legacy.Rows), 30.0
	if !z.Sky {
		z.SkyMin = [2]float64{ra, dec}
		z.SkyMax = [2]float64{ra, dec}
		z.Sky = true
	}

	// buildPersisted puts row i at (ra, dec) = (i, i%90).
	lost := 0
	for i := first; i < int(legacy.Rows); i++ {
		ra, dec := float64(i), float64(i%90)
		if ra < z.SkyMin[0] || ra > z.SkyMax[0] || dec < z.SkyMin[1] || dec > z.SkyMax[1] {
			lost++
		}
	}
	if lost != int(legacy.Rows)-first {
		t.Errorf("after one append the last page's sky box misses %d of its %d older rows, want all", lost, int(legacy.Rows)-first)
	}
}

// openZones opens the persisted directory, checks the reopened zone
// maps against the table, and returns them with the rows and page
// counters of a few magnitude cuts over the table.
func openZones(t *testing.T, dir string) ([]table.PageZone, string) {
	t.Helper()
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
	if err := zm.Validate(tb.NumPages()); err != nil {
		t.Fatal(err)
	}
	// Spot-check each zone against the first row it covers.
	zones := zm.Snapshot()
	for pg, z := range zones {
		var rec table.Record
		if err := tb.Get(table.RowID(pg*table.RecordsPerPage), &rec); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < table.Dim; d++ {
			v := float64(rec.Mags[d])
			if v < z.Min[d] || v > z.Max[d] {
				t.Errorf("page %d axis %d: row value %g outside zone [%g, %g]", pg, d, v, z.Min[d], z.Max[d])
			}
		}
	}
	var profile strings.Builder
	r := func(sign, b float64) vec.Halfspace {
		return vec.Halfspace{A: vec.Point{0, 0, sign, 0, 0}, B: b}
	}
	for _, cut := range []vec.Polyhedron{
		vec.NewPolyhedron(r(1, 19)),             // r <= 19: page 0 only
		vec.NewPolyhedron(r(-1, -25)),           // r >= 25: pages 1 and 2
		vec.NewPolyhedron(r(1, 30)),             // every page inside
		vec.NewPolyhedron(r(-1, -20), r(1, 22)), // a band across pages 0 and 1
		vec.NewPolyhedron(r(1, 10)),             // no page
	} {
		pred, err := table.CompilePagePred([]vec.Polyhedron{cut})
		if err != nil {
			t.Fatal(err)
		}
		var c table.ScanCounters
		it := tb.IterRangePred(nil, 0, table.RowID(tb.NumRows()), table.ColAll, pred, nil, &c)
		var rec table.Record
		n := 0
		for it.Next(&rec) {
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&profile, "rows=%d skipped=%d scanned=%d strips=%d; ", n, c.PagesSkipped.Load(), c.PagesScanned.Load(), c.StripsDecoded.Load())
	}
	return zones, profile.String()
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
	err = pagedio.WriteGob(s, GenName(ZoneFileName("t.tbl"), s.ArtifactGen()), func(enc *gob.Encoder) error { return enc.Encode(pz) })
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
