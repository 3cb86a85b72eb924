package table

import (
	"cmp"
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
	ref = drain(tb.IterRangePred(context.Background(), 0, RowID(tb.NumRows()), ColObjID|ColMags, nil, nil, &plain), func() bool {
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
	pruned = drain(tb.IterRangePred(context.Background(), 0, RowID(tb.NumRows()), ColObjID, pred, nil, &sc), all)
	full := drain(tb.WithoutZones().IterRangePred(context.Background(), 0, RowID(tb.NumRows()), ColObjID, pred, nil, &blind), all)
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

// ranked is one row of a top-k: its ordering key, and the ObjID and
// arrival sequence that break key ties, in that order.
type ranked struct {
	key     float64
	id, seq int64
}

func (a ranked) compare(b ranked, desc bool) int {
	ka, kb := a.key, b.key
	if desc {
		ka, kb = kb, ka
	}
	return cmp.Or(cmp.Compare(ka, kb), cmp.Compare(a.id, b.id), cmp.Compare(a.seq, b.seq))
}

// boundedTopK scans the whole table under pred (nil: unfiltered) with
// the bound pushed down and plays the consumer: it ranks by the bound's
// own Key (ascending, whatever the direction), keeps the best k rows met
// and publishes the k-th key whenever it changes. Returns the kept
// ObjIDs in rank order — the callers' reference ranks independently, by
// orderingKey or distKey and the direction.
func boundedTopK(t *testing.T, tb *Table, pred *PagePred, bound *KeyBound, k int, sc *ScanCounters) []int64 {
	t.Helper()
	it := tb.IterRangePred(context.Background(), 0, RowID(tb.NumRows()), ColObjID|ColMags, pred, bound, sc)
	defer it.Close()
	var kept []ranked
	var rec Record
	for seq := int64(0); it.Next(&rec); seq++ {
		kept = append(kept, ranked{bound.Key(&rec.Mags), rec.ObjID, seq})
		slices.SortFunc(kept, func(a, b ranked) int { return a.compare(b, false) })
		if len(kept) > k {
			kept = kept[:k]
		}
		if len(kept) == k {
			bound.Tighten(kept[k-1].key)
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, len(kept))
	for i, r := range kept {
		ids[i] = r.id
	}
	return ids
}

// orderingKey is colorsql.OrderBy.Key's arithmetic: start at K, add
// c·m by ascending axis.
func orderingKey(coeffs []float64, k float64, rec *Record) float64 {
	s := k
	for i, c := range coeffs {
		s += c * float64(rec.Mags[i])
	}
	return s
}

// distKey is colorsql.OrderBy.Key's arithmetic for dist(p): square each
// magnitude's difference from p, sum by ascending axis.
func distKey(p []float64, rec *Record) float64 {
	var s float64
	for i, v := range p {
		d := float64(rec.Mags[i]) - v
		s += d * d
	}
	return s
}

// FuzzZonePrunedScan is the pruning-equivalence fuzz: for arbitrary
// finite linear inequalities, alone or OR-ed with a second clause, the
// zone-map-pruned scan must return exactly the rows the per-row
// evaluation keeps, each once, in the same order, and its page counters
// must add up. With k > 0 the same WHERE also runs as a top-k under the
// ordering o0·m[axis] + o1·m[axis+1] + b — or, with dist, under
// dist(p) for p the magnitudes of row at moved by o0 and o1 along the
// same two axes — its k-th key pushed into the scan: the kept rows must
// be the first k of the reference sorted on (key, ObjID), with the
// filter and without it.
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
		recs[i] = randomRecord(rng, 0)
	}
	// Clustered on u, so page zones are tight on one axis and a bound,
	// linear or dist, has pages to skip.
	slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.Mags[0], b.Mags[0]) })
	for i := range recs {
		// Descending ObjIDs: under a key tie the later row ranks first.
		recs[i].ObjID = int64(rows - 1 - i)
		// Every third row of the tail repeats the magnitudes of a row on
		// an earlier page: distance ties across pages.
		if i >= 5*RecordsPerPage && i%3 == 0 {
			recs[i].Mags = recs[i*37%(5*RecordsPerPage)].Mags
		}
	}
	if err := tb.AppendAll(recs); err != nil {
		f.Fatal(err)
	}

	f.Add(1.0, -1.0, 0.0, 0.0, 0.0, -0.2, uint8(2), 18.0, 0.0, 0.0, 0.0, uint8(0), false, false, uint16(0))    // g - r > 0.2 AND r < 18 (negated form)
	f.Add(1.0, -1.0, 0.0, 0.0, 0.0, -0.2, uint8(2), 18.0, 23.5, 0.0, 0.0, uint8(0), false, false, uint16(0))   // ... OR i > 23.5, overlapping it
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0), 50.0, 0.0, 0.0, 0.0, uint8(0), false, false, uint16(0))      // degenerate plane keeps everything
	f.Add(0.5, 0.5, 0.5, 0.5, 0.5, 1.0, uint8(4), 14.0, 14.5, 0.0, 0.0, uint8(0), false, false, uint16(0))     // an empty clause OR a thin one
	f.Add(1.0, -1.0, 0.0, 0.0, 0.0, -0.2, uint8(2), 21.0, 0.0, 1.0, 0.0, uint8(20), false, false, uint16(0))   // ... ORDER BY r LIMIT 20
	f.Add(1.0, -1.0, 0.0, 0.0, 0.0, -0.2, uint8(1), 23.0, 23.5, 1.0, -1.0, uint8(50), true, false, uint16(0))  // ... ORDER BY g - r DESC LIMIT 50
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0), 50.0, 0.0, 0.0, 0.0, uint8(7), false, false, uint16(0))      // every key ties: ObjID decides
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0), 50.0, 0.0, 0.0, 0.0, uint8(1), false, true, uint16(513))     // ORDER BY dist(a row repeated on an earlier page) LIMIT 1: a tie at 0
	f.Add(1.0, -1.0, 0.0, 0.0, 0.0, -0.2, uint8(2), 21.0, 0.0, 0.3, -0.2, uint8(20), false, true, uint16(200)) // g - r > 0.2 AND r < 21 ORDER BY dist(p) LIMIT 20
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0), 50.0, 23.0, -8.0, 0.0, uint8(30), false, true, uint16(0))    // dist(p) below the data in u: far pages skipped
	f.Add(1.0, -1.0, 0.0, 0.0, 0.0, -0.2, uint8(0), 23.0, 0.0, 0.5, 0.5, uint8(10), true, true, uint16(505))   // ... ORDER BY dist(p) DESC LIMIT 10
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, a4, b float64, axis uint8, cut, orAbove, o0, o1 float64, k uint8, desc, dist bool, at uint16) {
		for _, v := range []float64{a0, a1, a2, a3, a4, b, cut, orAbove, o0, o1} {
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
		totalPages := int64(tb.NumPages())
		if skipped+scanned != totalPages {
			t.Fatalf("skipped %d + scanned %d != %d pages", skipped, scanned, totalPages)
		}
		if k == 0 {
			return
		}

		// The ordering: its bound, and the reference's own key.
		v := make([]float64, Dim)
		if dist {
			for i, m := range recs[int(at)%rows].Mags {
				v[i] = float64(m)
			}
		}
		v[int(axis)%Dim] += o0
		v[(int(axis)+1)%Dim] += o1
		newBound := func() *KeyBound { return NewKeyBound(v, b, desc) }
		refKey := func(r *Record) float64 { return orderingKey(v, b, r) }
		if dist {
			newBound = func() *KeyBound { return NewDistBound(v, desc) }
			refKey = func(r *Record) float64 { return distKey(v, r) }
		}
		pred, err := CompilePagePred(clauses)
		if err != nil {
			t.Fatal(err)
		}
		matches := make(map[int64]bool, len(ref))
		for _, id := range ref {
			matches[id] = true
		}
		for _, pred := range []*PagePred{pred, nil} {
			var want []ranked
			for i := range recs {
				if pred == nil || matches[recs[i].ObjID] {
					want = append(want, ranked{refKey(&recs[i]), recs[i].ObjID, int64(i)})
				}
			}
			slices.SortFunc(want, func(x, y ranked) int { return x.compare(y, desc) })
			want = want[:min(int(k), len(want))]
			var sc ScanCounters
			got := boundedTopK(t, tb, pred, newBound(), int(k), &sc)
			if len(got) != len(want) {
				t.Fatalf("top-%d (filtered %v) kept %d rows, reference %d", k, pred != nil, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i].id {
					t.Fatalf("top-%d (filtered %v) rank %d: ObjID %d, reference %d (key %v)", k, pred != nil, i, got[i], want[i].id, want[i].key)
				}
			}
			if sk, scn := sc.PagesSkipped.Load(), sc.PagesScanned.Load(); sk+scn != totalPages {
				t.Fatalf("top-%d (filtered %v): skipped %d + scanned %d != %d pages", k, pred != nil, sk, scn, totalPages)
			}
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
			it := tb.IterRangePred(context.Background(), 0, rows, ColObjID, pred, nil, &sc)
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
