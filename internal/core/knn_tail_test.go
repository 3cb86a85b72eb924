package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/knn"
	"repro/internal/memtable"
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

// bruteNearest is the reference: every visible row (paged and
// memtable) through the unindexed scan, sorted by distance.
func bruteNearest(t *testing.T, db *SpatialDB, p vec.Point, k int) []float64 {
	t.Helper()
	all, _ := collectStatement(t, db, "SELECT *", PlanFullScan)
	ds := make([]float64, len(all))
	for i := range all {
		ds[i] = magsDist2(p, &all[i])
	}
	sort.Float64s(ds)
	return ds[:min(k, len(ds))]
}

// TestKnnSeesCompactedTail pins ROADMAP 1(a): a row a minor compaction
// moved out of the memtable into the clustered table's unindexed tail
// is still its own nearest neighbour — through NearestNeighbors, the
// batch engine, the ORDER BY dist statement and photo-z's neighbour
// set — after one run, after two, and after a cold reopen; and every
// k-nearest answer equals brute force over all visible rows.
func TestKnnSeesCompactedTail(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDB(t, dir, 3000)
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	base, err := sky.Generate(sky.DefaultParams(3000, 42))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	fresh := func(firstID int64, n int) []table.Record {
		recs := make([]table.Record, n)
		for i := range recs {
			recs[i] = insertTestRecord(firstID + int64(i))
			src := &base[rng.Intn(len(base))]
			for d := range recs[i].Mags {
				recs[i].Mags[d] = src.Mags[d] + float32(rng.NormFloat64()*0.02)
			}
			recs[i].Redshift, recs[i].HasZ = 0.05+float32(i%11)*0.03, true
		}
		return recs
	}

	// compacted counts the inserted rows already moved into the paged
	// tables: the photo-z reference set gains a row at its compaction,
	// not at its insert.
	var inserted []table.Record
	compacted := 0
	check := func(db *SpatialDB, state string) {
		t.Helper()
		var ps []vec.Point
		for i := range inserted {
			ps = append(ps, inserted[i].Point())
		}
		batch, _, err := db.NearestNeighborsBatch(context.Background(), ps, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range ps {
			want := inserted[i].ObjID
			one, _, err := db.NearestNeighbors(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			stmt, _ := collectStatement(t, db, fmt.Sprintf(
				"SELECT * ORDER BY dist(%v, %v, %v, %v, %v) LIMIT 1", p[0], p[1], p[2], p[3], p[4]), PlanAuto)
			paths := map[string][]table.Record{
				"NearestNeighbors": one, "NearestNeighborsBatch": batch[i], "ORDER BY dist": stmt,
			}
			if i < compacted {
				ref, _, err := db.photoZ.Searcher().Search(p, 1)
				if err != nil {
					t.Fatal(err)
				}
				paths["photo-z reference"] = []table.Record{ref[0].Rec}
			}
			for path, got := range paths {
				// Two inserted rows may share a position; the row's own
				// distance (zero) is what every path must find.
				if len(got) != 1 || magsDist2(p, &got[0]) != 0 {
					t.Fatalf("%s: %s at row %d's magnitudes returned %+v, want objid %d", state, path, want, got, want)
				}
			}
		}
		// Exactness beyond k = 1: probes near inserted and catalog rows
		// alike equal brute force over every visible row.
		for i := 0; i < 24; i++ {
			p := base[rng.Intn(len(base))].Point()
			if i%2 == 0 {
				p = inserted[rng.Intn(len(inserted))].Point()
			}
			for d := range p {
				p[d] += rng.NormFloat64() * 0.05
			}
			got, _, err := db.NearestNeighbors(p, 10)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteNearest(t, db, p, 10)
			if len(got) != len(want) {
				t.Fatalf("%s: %d neighbours, brute force %d", state, len(got), len(want))
			}
			for j := range got {
				if d := magsDist2(p, &got[j]); d != want[j] {
					t.Fatalf("%s: probe %v neighbour %d at dist² %v, brute force %v", state, p, j, d, want[j])
				}
			}
		}
	}

	for run, firstID := range []int64{910_000_000, 920_000_000} {
		batch := fresh(firstID, 300)
		if _, err := db.Insert(batch); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, batch...)
		check(db, fmt.Sprintf("run %d in the memtable", run+1))
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		if db.MemRows() != 0 {
			t.Fatalf("memtable holds %d rows after Compact", db.MemRows())
		}
		compacted = len(inserted)
		check(db, fmt.Sprintf("%d compacted run(s)", run+1))
	}
	// A third batch stays in the memtable beside the two runs.
	batch := fresh(930_000_000, 100)
	if _, err := db.Insert(batch); err != nil {
		t.Fatal(err)
	}
	inserted = append(inserted, batch...)
	check(db, "two runs + memtable")
	if n := db.Engine().Store().PinnedPages(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "cold reopen")
	if n := re.Engine().Store().PinnedPages(); n != 0 {
		t.Fatalf("%d pages left pinned after reopen", n)
	}
}

// refMergeMemNeighbors is the copy-and-sort merge the one-pass fold
// replaced, kept as its reference: distance-stamp every memtable row,
// stable-sort, keep k, stable-sort those behind the paged answer,
// deduplicate by ObjID, keep k.
func refMergeMemNeighbors(nbs []knn.Neighbor, mem []memtable.Row, p vec.Point, k int) []knn.Neighbor {
	if len(mem) == 0 || k <= 0 {
		return nbs
	}
	cand := make([]knn.Neighbor, 0, len(mem))
	for i := range mem {
		cand = append(cand, knn.Neighbor{Row: ^table.RowID(0), Dist2: magsDist2(p, &mem[i].Rec), Rec: mem[i].Rec})
	}
	sort.SliceStable(cand, func(i, j int) bool { return cand[i].Dist2 < cand[j].Dist2 })
	cand = cand[:min(k, len(cand))]
	merged := append(append([]knn.Neighbor{}, nbs...), cand...)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Dist2 < merged[j].Dist2 })
	seen := make(map[int64]bool, len(merged))
	out := merged[:0]
	for _, nb := range merged {
		if !seen[nb.Rec.ObjID] {
			seen[nb.Rec.ObjID] = true
			out = append(out, nb)
		}
	}
	return out[:min(k, len(out))]
}

// TestMemNeighborFoldMatchesReference: the one-pass fold returns the
// reference merge's neighbours, row for row, over seeded memtables
// built to tie — magnitudes on a coarse lattice, ObjIDs repeated inside
// the memtable and between it and the paged answer, fewer than k paged
// neighbours, k beyond the memtable — and allocates nothing that grows
// with the memtable.
func TestMemNeighborFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	lattice := func(id int64) table.Record {
		rec := table.Record{ObjID: id}
		for d := range rec.Mags {
			rec.Mags[d] = 17 + 0.5*float32(rng.Intn(3))
		}
		return rec
	}
	for trial := 0; trial < 2403; trial++ {
		k, memRows, ids := 1+rng.Intn(12), rng.Intn(40), 60
		large := trial >= 2400 // an uncapped LIMIT: k far beyond any probe's
		if large {
			k, memRows, ids = 20000<<(trial-2400), []int{1000, 30000, 100000}[trial-2400], 200000
		}
		p := vec.Point{17.25, 17.5, 17, 18, 17.75}
		if trial%3 == 0 {
			for d := range p {
				p[d] = 17 + rng.Float64()
			}
		}
		mem := make([]memtable.Row, memRows)
		if trial%7 == 0 {
			mem = mem[:rng.Intn(min(k, len(mem))+1)] // k > len(mem), the empty memtable included
		}
		for i := range mem {
			mem[i] = memtable.Row{Seq: uint64(i + 1), Rec: lattice(int64(rng.Intn(ids)))}
		}
		paged := make([]knn.Neighbor, rng.Intn(k+1))
		if large {
			paged = make([]knn.Neighbor, k-rng.Intn(100))
		}
		for i := range paged {
			rec := lattice(int64(rng.Intn(ids)))
			if len(mem) > 0 && i%2 == 0 {
				rec = mem[rng.Intn(len(mem))].Rec // the row a compaction just published
			}
			paged[i] = knn.Neighbor{Row: table.RowID(i), Dist2: magsDist2(p, &rec), Rec: rec}
		}
		sort.SliceStable(paged, func(i, j int) bool { return paged[i].Dist2 < paged[j].Dist2 })

		start := time.Now()
		want := refMergeMemNeighbors(paged, mem, p, k)
		refTook := time.Since(start)
		start = time.Now()
		got := mergeMemNeighbors(paged, mem, p, k)
		took := time.Since(start)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			if large {
				t.Fatalf("trial %d (k=%d, %d paged, %d mem): fold differs from the reference", trial, k, len(paged), len(mem))
			}
			t.Fatalf("trial %d (k=%d, %d paged, %d mem): fold returned\n%+v\nreference\n%+v", trial, k, len(paged), len(mem), got, want)
		}
		if len(mem) == 0 && len(got) > 0 && &got[0] != &paged[0] {
			t.Fatalf("trial %d: an empty memtable is not the identity", trial)
		}
		// Linear in k: the fold runs several times faster than the
		// copy-and-sort body at these sizes, and a dedup that rescans its
		// output per neighbour tens of times slower.
		if large && took > 4*refTook {
			t.Errorf("trial %d (k=%d, %d mem): fold took %v, the copy-and-sort reference %v", trial, k, len(mem), took, refTook)
		}
	}

	allocs := func(n int) float64 {
		mem := make([]memtable.Row, n)
		for i := range mem {
			mem[i] = memtable.Row{Seq: uint64(i + 1), Rec: insertTestRecord(int64(i))}
			mem[i].Rec.Mags[0] += float32(rng.NormFloat64())
		}
		p := vec.Point{17.3, 17.5, 17.7, 17.9, 18.1}
		return testing.AllocsPerRun(20, func() { mergeMemNeighbors(nil, mem, p, 10) })
	}
	if small, large := allocs(1000), allocs(16000); large > small || small > 8 {
		t.Fatalf("fold allocates %v times over 1K memtable rows and %v over 16K, want ≤ 8 and no growth", small, large)
	}
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
	_, before := collectStatement(t, db, cut, PlanKdTree)
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
	got, rep := collectStatement(t, db, cut, PlanKdTree)
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
