package core

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// magsDist2 is the squared colour-space distance from p to a record,
// summed in the order the search sums it.
func magsDist2(p vec.Point, r *table.Record) float64 {
	var s float64
	for i := range p {
		d := p[i] - float64(r.Mags[i])
		s += d * d
	}
	return s
}

// TestCompactionWritesKdOrderedRuns: a minor compaction appends its
// batch to the catalog as one kd-ordered run — the catalog's tail is the
// batch stable-sorted by the leaf each row routes to, leaf ids never
// decreasing inside a run — and the tight page zones that buys let a
// selective cut skip most of a large tail unread, still returning
// exactly the full scan's rows.
func TestCompactionWritesKdOrderedRuns(t *testing.T) {
	db := buildFullDB(t, t.TempDir(), 4000)
	defer db.Close()
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	// Fresh rows drawn from the catalog's own distribution (another
	// seed), so a run spans the whole colour space the way ingest does.
	fresh, err := sky.Generate(sky.DefaultParams(6000, 43))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		fresh[i] = table.Record{ObjID: 940_000_000 + int64(i), Mags: fresh[i].Mags, Ra: fresh[i].Ra, Dec: fresh[i].Dec}
	}
	kd, catalog := db.kd, db.catalog
	root := kd.Root().Cell
	leafOf := func(r *table.Record) int { return kd.LeafContaining(root.ClosestPoint(r.Point())) }
	const cut = "SELECT * WHERE g - r > 0.9 AND r < 17.5"
	_, before := collectStatement(t, db, cut, PlanAuto)
	for run, batch := range [][]table.Record{fresh[:2500], fresh[2500:]} {
		lo := table.RowID(catalog.NumRows())
		for off := 0; off < len(batch); off += 500 {
			if _, err := db.Insert(batch[off:min(off+500, len(batch))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(batch)
		slices.SortStableFunc(want, func(a, b table.Record) int { return cmp.Compare(leafOf(&a), leafOf(&b)) })
		i, leaves := 0, map[int]bool{}
		err := catalog.ScanRange(lo, table.RowID(catalog.NumRows()), func(id table.RowID, r *table.Record) bool {
			if i >= len(want) || r.ObjID != want[i].ObjID {
				t.Errorf("run %d: catalog row %d is not the %d-th row of the batch in run order", run, id, i)
				return false
			}
			leaves[leafOf(r)] = true
			i++
			return true
		})
		if err != nil || t.Failed() {
			t.Fatal("catalog tail is not the batch in run order: ", err)
		}
		if i != len(batch) || len(leaves) < 2 {
			t.Fatalf("run %d: catalog gained %d rows over %d leaves, want %d rows over several", run, i, len(leaves), len(batch))
		}
	}

	tail := int64(catalog.NumRows() - kd.NumRows)
	if tail < 5000 {
		t.Fatalf("tail holds %d rows, want ≥ 5000", tail)
	}
	got, rep := collectStatement(t, db, cut, PlanAuto)
	want, _ := collectStatement(t, db, cut, PlanFullScan)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("index scan over the tail returned %d rows, full scan %d (or contents or order differ)", len(got), len(want))
	}
	if rep.PagesScanned != rep.DiskReads+rep.CacheHits {
		t.Errorf("PagesScanned %d != DiskReads %d + CacheHits %d", rep.PagesScanned, rep.DiskReads, rep.CacheHits)
	}
	// The tree and its indexed pages did not move, so what PagesSkipped
	// gained is the tail's. Arrival-order pages each span the whole
	// colour space and none could be skipped; a kd-ordered run's mostly
	// can.
	tailPages := (tail + table.RecordsPerPage - 1) / table.RecordsPerPage
	if skipped := rep.PagesSkipped - before.PagesSkipped; skipped < tailPages/2 {
		t.Errorf("cut skipped %d of %d tail pages, want at least half", skipped, tailPages)
	}
}
