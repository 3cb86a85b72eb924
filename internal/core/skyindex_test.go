package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sky"
	"repro/internal/table"
)

// skyReference is the sky cut by definition: every paged catalog row in
// physical order, then every memtable row in commit order, kept when
// its position is in the box — no index, no zone, no cursor.
func skyReference(t *testing.T, db *SpatialDB, box table.SkyBoxPred, cols table.ColumnSet) []table.Record {
	t.Helper()
	cat, err := db.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	var out []table.Record
	keep := func(r *table.Record) {
		if box.Contains(float64(r.Ra), float64(r.Dec)) {
			out = append(out, r.Project(cols))
		}
	}
	if err := cat.Scan(func(_ table.RowID, r *table.Record) bool { keep(r); return true }); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	mem := db.mem.Snapshot()
	db.mu.RUnlock()
	for i := range mem {
		keep(&mem[i].Rec)
	}
	return out
}

// checkSkyMatchesScan runs every box through QuerySkyBox and requires
// the reference's rows in the reference's order, page counters that
// add up, and no pinned page once the cursors are closed — after a
// full drain, a Close before the first Next, and a stop after one row.
func checkSkyMatchesScan(t *testing.T, db *SpatialDB, stage string, boxes []table.SkyBoxPred) {
	t.Helper()
	ctx := context.Background()
	for _, cols := range []table.ColumnSet{table.ColAll, table.ColObjID | table.ColRa | table.ColDec | table.ColClass | table.ColRedshift} {
		for _, box := range boxes {
			want := skyReference(t, db, box, cols)
			cur, err := db.QuerySkyBox(ctx, box, cols)
			if err != nil {
				t.Fatalf("%s: box %+v: %v", stage, box, err)
			}
			var got []table.Record
			for cur.Next() {
				got = append(got, *cur.Record())
			}
			if err := cur.Err(); err != nil {
				t.Fatalf("%s: box %+v: %v", stage, box, err)
			}
			rep := cur.Stats()
			cur.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: box %+v: cursor returned %d rows, the reference scan %d (or a different order)", stage, box, len(got), len(want))
			}
			if rep.RowsReturned != int64(len(want)) || rep.PagesScanned != rep.DiskReads+rep.CacheHits {
				t.Fatalf("%s: box %+v: report %+v for %d rows", stage, box, rep, len(want))
			}
			for _, stopAfter := range []int{0, 1} {
				cur, err := db.QuerySkyBox(ctx, box, cols)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < stopAfter && cur.Next(); i++ {
				}
				cur.Close()
			}
		}
	}
	if got := db.Engine().Store().PinnedPages(); got != 0 {
		t.Fatalf("%s: PinnedPages = %d after every sky cursor closed", stage, got)
	}
}

// skyEdgeRecord is an inserted row at a chosen position, on the sky's
// edges or past them (positions are only required to be finite).
func skyEdgeRecord(id int64, ra, dec float32) table.Record {
	r := churnRecord(id)
	r.Ra, r.Dec = ra, dec
	return r
}

// TestSkyIndexMatchesScan: the sky cut served through the cell index
// returns exactly the rows, in exactly the order, of a plain scan of the
// catalog followed by the memtable — on a store without a tree, after
// one and two kd builds, with two minor-compacted runs in the tail and
// rows in the memtable, after a cold reopen, and after a full
// compaction. Boxes cover the sky's edges, zero-width cuts through a
// row, boxes wholly outside the sky, the whole sky, and seeded boxes
// whose edges pass through rows.
func TestSkyIndexMatchesScan(t *testing.T) {
	recs, err := sky.Generate(sky.DefaultParams(5000, 9))
	if err != nil {
		t.Fatal(err)
	}
	edges := [][2]float32{{0, 0}, {360, 1}, {-3, 2}, {365, -2}, {5, -90}, {6, 90}, {7, -95}, {8, 95}, {359.99997, 89.99999}}
	for i, e := range edges {
		recs[i*500].Ra, recs[i*500].Dec = e[0], e[1]
	}
	boxes := []table.SkyBoxPred{
		{RaMin: 0, RaMax: 360, DecMin: -90, DecMax: 90},
		{RaMin: -1000, RaMax: 1000, DecMin: -1000, DecMax: 1000},
		{RaMin: 0, RaMax: 0, DecMin: -90, DecMax: 90},
		{RaMin: 360, RaMax: 360, DecMin: -90, DecMax: 90},
		{RaMin: 0, RaMax: 360, DecMin: -90, DecMax: -90},
		{RaMin: 0, RaMax: 360, DecMin: 90, DecMax: 90},
		{RaMin: 359, RaMax: 360, DecMin: -90, DecMax: -89},
		{RaMin: 400, RaMax: 500, DecMin: 0, DecMax: 10},
		{RaMin: -20, RaMax: -10, DecMin: 0, DecMax: 10},
		{RaMin: 0, RaMax: 10, DecMin: 95, DecMax: 100},
		{RaMin: 0, RaMax: 10, DecMin: -100, DecMax: -95},
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 24; i++ {
		r := &recs[rng.Intn(len(recs))]
		ra, dec := float64(r.Ra), float64(r.Dec)
		switch i % 3 {
		case 0: // zero-width cut through one row
			boxes = append(boxes, table.SkyBoxPred{RaMin: ra, RaMax: ra, DecMin: dec, DecMax: dec})
		case 1: // a box whose lower corner is a row
			boxes = append(boxes, table.SkyBoxPred{RaMin: ra, RaMax: ra + 10, DecMin: dec, DecMax: dec + 10})
		default: // a box whose upper corner is a row
			w := rng.Float64() * 30
			boxes = append(boxes, table.SkyBoxPred{RaMin: ra - w, RaMax: ra, DecMin: dec - w, DecMax: dec})
		}
	}

	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	if err := db.IngestRecords(recs); err != nil {
		t.Fatal(err)
	}
	checkSkyMatchesScan(t, db, "tree-less store", boxes)
	for build := 1; build <= 2; build++ {
		if err := db.BuildKdIndex(0); err != nil {
			t.Fatal(err)
		}
		checkSkyMatchesScan(t, db, fmt.Sprintf("kd build %d", build), boxes)
	}
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}

	next := int64(6_000_000_000)
	insert := func(n int) {
		t.Helper()
		var batch []table.Record
		for i := 0; i < n; i++ {
			e := edges[i%len(edges)]
			if i%2 == 1 {
				e = [2]float32{float32(rng.Float64() * 360), float32(rng.Float64()*180 - 90)}
			}
			batch = append(batch, skyEdgeRecord(next, e[0], e[1]))
			next++
		}
		if _, err := db.Insert(batch); err != nil {
			t.Fatal(err)
		}
	}
	for run := 1; run <= 2; run++ {
		insert(150)
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		checkSkyMatchesScan(t, db, fmt.Sprintf("%d minor-compacted runs", run), boxes)
	}
	insert(40)
	checkSkyMatchesScan(t, db, "memtable rows", boxes)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if db.MemRows() == 0 {
		t.Fatal("cold reopen replayed no memtable rows")
	}
	checkSkyMatchesScan(t, db, "cold reopen", boxes)

	if err := db.CompactFull(); err != nil {
		t.Fatal(err)
	}
	checkSkyMatchesScan(t, db, "after CompactFull", boxes)
}

// TestSkyIndexPrunes: on a kd-clustered catalog, whose pages each span
// the whole sky, a 10°×10° cut reads under half of the pages — the
// zones alone read nearly all of them — and the index costs nothing
// until the first cut: a cold open reads no catalog page for it.
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
	for _, box := range []table.SkyBoxPred{
		{RaMin: 100, RaMax: 110, DecMin: 0, DecMax: 10},
		{RaMin: 200, RaMax: 210, DecMin: -40, DecMax: -30},
	} {
		cur, err := db.QuerySkyBox(context.Background(), box, table.ColObjID)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
		}
		rep := cur.Stats()
		cur.Close()
		t.Logf("box %+v: %d rows from %d of %d pages", box, rep.RowsReturned, rep.PagesScanned, pages)
		if rep.RowsReturned == 0 || 2*rep.PagesScanned >= pages || rep.PagesScanned+rep.PagesSkipped != pages {
			t.Errorf("box %+v: %d rows, %d pages scanned and %d skipped of %d", box, rep.RowsReturned, rep.PagesScanned, rep.PagesSkipped, pages)
		}
	}
}
