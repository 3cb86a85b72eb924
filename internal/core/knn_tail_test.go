package core

import (
	"cmp"
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

// refMergeMemNeighbors is the copy-and-sort merge the one-pass fold
// replaced, kept as its reference: distance-stamp every memtable row,
// stable-sort, keep k, stable-sort those behind the paged answer, keep
// k. Rows sharing an ObjID are all kept.
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
	return merged[:min(k, len(merged))]
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
				rec = mem[rng.Intn(len(mem))].Rec // a paged row sharing a memtable row's ObjID
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
