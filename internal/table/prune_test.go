package table

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/vec"
)

// prunedVsUnpruned runs the same range scan three ways — unfiltered
// with a per-row reference test, predicate pushed down over the zone
// maps, and predicate pushed down through a WithoutZones view (the
// full scan) — checks the three agree, and reports the reference
// ObjIDs, the pruned ones and the pruned pass's counters. The reference
// applies the exact same inequalities per row in the same coefficient
// order, keeping a row any clause keeps. Every pass counts: an
// unfiltered range accounts its pages and rows exactly like a filtered
// one.
func prunedVsUnpruned(t *testing.T, tb *Table, clauses []vec.Polyhedron) (ref, pruned []int64, skipped, scanned int64) {
	t.Helper()
	var plain, sc, blind ScanCounters
	var rec Record
	drain := func(it *Iter, keep func() bool) (ids []int64) {
		for it.Next(&rec) {
			if keep() {
				ids = append(ids, rec.ObjID)
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		return ids
	}
	all := func() bool { return true }
	inClause := func(q vec.Polyhedron) bool {
		for _, h := range q.Planes {
			s := 0.0
			for d := 0; d < Dim; d++ {
				if h.A[d] != 0 {
					s += h.A[d] * float64(rec.Mags[d])
				}
			}
			if s > h.B {
				return false
			}
		}
		return true
	}
	ref = drain(tb.IterRangePred(context.Background(), 0, RowID(tb.NumRows()), ColObjID|ColMags, nil, &plain), func() bool {
		return slices.ContainsFunc(clauses, inClause)
	})
	pages, rows := int64(tb.NumPages()), int64(tb.NumRows())
	if plain.PagesScanned.Load() != pages || plain.Examined.Load() != rows || plain.PagesSkipped.Load() != 0 {
		t.Fatalf("unfiltered scan counted %d pages, %d rows, %d skipped; table has %d pages, %d rows",
			plain.PagesScanned.Load(), plain.Examined.Load(), plain.PagesSkipped.Load(), pages, rows)
	}

	pred, err := CompilePagePred(clauses)
	if err != nil {
		t.Fatal(err)
	}
	pruned = drain(tb.IterRangePred(context.Background(), 0, RowID(tb.NumRows()), ColObjID, pred, &sc), all)
	full := drain(tb.WithoutZones().IterRangePred(context.Background(), 0, RowID(tb.NumRows()), ColObjID, pred, &blind), all)
	if len(full) != len(pruned) {
		t.Fatalf("zone-blind scan returned %d rows, pruned scan %d (clauses %v)", len(full), len(pruned), clauses)
	}
	for i := range full {
		if full[i] != pruned[i] {
			t.Fatalf("row %d: zone-blind ObjID %d != pruned %d", i, full[i], pruned[i])
		}
	}
	if blind.PagesScanned.Load() != pages || blind.PagesSkipped.Load() != 0 {
		t.Fatalf("zone-blind scan fetched %d and skipped %d of %d pages", blind.PagesScanned.Load(), blind.PagesSkipped.Load(), pages)
	}
	return ref, pruned, sc.PagesSkipped.Load(), sc.PagesScanned.Load()
}

// FuzzZonePrunedScan is the pruning-equivalence fuzz: for arbitrary
// finite linear inequalities, alone or OR-ed with a second clause, the
// zone-map-pruned scan must return exactly the rows the per-row
// evaluation keeps, each once, in the same order, and its page counters
// must add up.
func FuzzZonePrunedScan(f *testing.F) {
	s, err := pagestore.Open(f.TempDir(), 256)
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	tb, err := Create(s, "fuzz.tbl")
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const rows = 5*RecordsPerPage + 17 // several full pages plus a tail
	recs := make([]Record, rows)
	for i := range recs {
		recs[i] = randomRecord(rng, int64(i))
	}
	if err := tb.AppendAll(recs); err != nil {
		f.Fatal(err)
	}

	f.Add(1.0, -1.0, 0.0, 0.0, 0.0, -0.2, uint8(2), 18.0, 0.0)  // g - r > 0.2 AND r < 18 (negated form)
	f.Add(1.0, -1.0, 0.0, 0.0, 0.0, -0.2, uint8(2), 18.0, 23.5) // ... OR i > 23.5, overlapping it
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0), 50.0, 0.0)    // degenerate plane keeps everything
	f.Add(0.5, 0.5, 0.5, 0.5, 0.5, 1.0, uint8(4), 14.0, 14.5)   // an empty clause OR a thin one
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, a4, b float64, axis uint8, cut, orAbove float64) {
		for _, v := range []float64{a0, a1, a2, a3, a4, b, cut, orAbove} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				t.Skip("non-finite or overflow-prone coefficient")
			}
		}
		cutPlane := vec.Halfspace{A: make(vec.Point, Dim), B: cut}
		cutPlane.A[int(axis)%Dim] = 1
		clauses := []vec.Polyhedron{{Planes: []vec.Halfspace{
			{A: vec.Point{a0, a1, a2, a3, a4}, B: b},
			cutPlane,
		}}}
		if orAbove != 0 {
			// A second clause, on the next axis: x > orAbove.
			above := vec.Halfspace{A: make(vec.Point, Dim), B: -orAbove}
			above.A[(int(axis)+1)%Dim] = -1
			clauses = append(clauses, vec.Polyhedron{Planes: []vec.Halfspace{above}})
		}
		ref, pruned, skipped, scanned := prunedVsUnpruned(t, tb, clauses)
		if len(ref) != len(pruned) {
			t.Fatalf("pruned scan returned %d rows, per-row reference %d (clauses %v)", len(pruned), len(ref), clauses)
		}
		for i := range ref {
			if ref[i] != pruned[i] {
				t.Fatalf("row %d: pruned ObjID %d != reference %d", i, pruned[i], ref[i])
			}
		}
		if totalPages := int64(tb.NumPages()); skipped+scanned != totalPages {
			t.Fatalf("skipped %d + scanned %d != %d pages", skipped, scanned, totalPages)
		}
	})
}

// BenchmarkZoneMapScan measures the pruned strip scan against the
// unpruned per-row path on a selective color cut over a table whose
// physical order makes zones tight (sorted by r).
func BenchmarkZoneMapScan(b *testing.B) {
	s, err := pagestore.Open(b.TempDir(), 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tb, err := Create(s, "bench.tbl")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const rows = 200 * RecordsPerPage
	recs := make([]Record, rows)
	for i := range recs {
		recs[i] = randomRecord(rng, int64(i))
	}
	// Cluster by r so the zone maps can actually exclude pages.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Mags[2] < recs[j-1].Mags[2]; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	if err := tb.AppendAll(recs); err != nil {
		b.Fatal(err)
	}
	// r < 15: with mags uniform in [14, 24), ~10% of the sorted table.
	planes := []vec.Halfspace{{A: vec.Point{0, 0, 1, 0, 0}, B: 15}}
	pred, err := CompilePagePred([]vec.Polyhedron{{Planes: planes}})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("pruned", func(b *testing.B) {
		var rec Record
		var sc ScanCounters
		n := 0
		for i := 0; i < b.N; i++ {
			it := tb.IterRangePred(context.Background(), 0, rows, ColObjID, pred, &sc)
			n = 0
			for it.Next(&rec) {
				n++
			}
			it.Close()
		}
		b.ReportMetric(float64(n), "rows/op")
	})
	b.Run("unpruned", func(b *testing.B) {
		var rec Record
		n := 0
		for i := 0; i < b.N; i++ {
			it := tb.IterRange(context.Background(), 0, rows, ColObjID|ColMags)
			n = 0
			for it.Next(&rec) {
				if float64(rec.Mags[2]) <= 15 {
					n++
				}
			}
			it.Close()
		}
		b.ReportMetric(float64(n), "rows/op")
	})
}
