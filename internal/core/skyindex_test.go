package core

import (
	"context"
	"testing"

	"repro/internal/sky"
	"repro/internal/table"
)

// TestSkyIndexPrunes: on a kd-clustered catalog, whose pages each span
// the whole sky, a 10°×10° cut reads under half of the pages — the
// zones alone read nearly all of them — and the index costs nothing
// until the first cut: a cold open reads no catalog page for it, and
// the first cut reports the build's pages among its own.
func TestSkyIndexPrunes(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.IngestSynthetic(sky.DefaultParams(40_000, 4)); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.mu.RLock()
	built := db.sky.ix != nil
	db.mu.RUnlock()
	if built {
		t.Fatal("cold open built the sky index before any sky cut")
	}
	cat, err := db.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	pages := int64(cat.NumPages())
	covered := int64(cat.NumRows() / table.RecordsPerPage) // the full pages the index covers
	cut := func(box table.SkyBoxPred) Report {
		cur, err := db.QuerySkyBox(context.Background(), box, table.ColObjID)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
		}
		cur.Close()
		return cur.Stats()
	}
	for i, box := range []table.SkyBoxPred{
		{RaMin: 100, RaMax: 110, DecMin: 0, DecMax: 10},
		{RaMin: 200, RaMax: 210, DecMin: -40, DecMax: -30},
	} {
		// The first cut of the catalog builds the index under its own
		// scope: it also scans every covered page once.
		first, rep := cut(box), cut(box)
		build := int64(0)
		if i == 0 {
			build = covered
		}
		if first.PagesScanned != rep.PagesScanned+build || first.DiskReads+first.CacheHits != first.PagesScanned {
			t.Errorf("box %+v: first cut scanned %d pages (%d reads + %d hits), a repeat %d, the build %d", box, first.PagesScanned, first.DiskReads, first.CacheHits, rep.PagesScanned, build)
		}
		t.Logf("box %+v: %d rows from %d of %d pages", box, rep.RowsReturned, rep.PagesScanned, pages)
		if rep.RowsReturned == 0 || 2*rep.PagesScanned >= pages || rep.PagesScanned+rep.PagesSkipped != pages {
			t.Errorf("box %+v: %d rows, %d pages scanned and %d skipped of %d", box, rep.RowsReturned, rep.PagesScanned, rep.PagesSkipped, pages)
		}
	}
}
