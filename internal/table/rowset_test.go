package table

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRowSetNext: next finds the first member of a range exactly as a
// linear walk would, across word boundaries and for coverages that are
// not a multiple of 64.
func TestRowSetNext(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, covered := range []int{1, 63, 64, 65, 200, 1000} {
		for _, density := range []float64{0, 0.01, 0.3, 1} {
			s := NewRowSet(covered)
			for r := 0; r < covered; r++ {
				if rng.Float64() < density {
					s.Add(r)
				}
			}
			s.Add(covered + 5) // past the prefix: ignored
			for trial := 0; trial < 200; trial++ {
				lo := rng.Intn(covered + 1)
				end := lo + rng.Intn(covered-lo+1)
				want := end
				for r := lo; r < end; r++ {
					if s.Has(r) {
						want = r
						break
					}
				}
				if got := s.next(lo, end); got != want {
					t.Fatalf("covered %d density %g: next(%d, %d) = %d, want %d", covered, density, lo, end, got, want)
				}
			}
		}
	}
}

// TestIterRangeSkyRowSet: a sky scan carrying a row set that holds
// every covered row inside the box (plus unrelated rows) returns
// exactly the rows of a scan without one, in the same order, reads no
// covered page without a member, and scans the uncovered tail as usual.
func TestIterRangeSkyRowSet(t *testing.T) {
	tb := newTable(t, 64)
	rng := rand.New(rand.NewSource(2))
	recs := make([]Record, 10*RecordsPerPage+37)
	for i := range recs {
		recs[i] = randomRecord(rng, int64(i))
	}
	if err := tb.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	covered := 7 * RecordsPerPage
	drain := func(box *SkyBoxPred, set *RowSet) ([]Record, *ScanCounters) {
		var counters ScanCounters
		it := tb.IterRangeSky(nil, 0, RowID(len(recs)), ColAll, box, set, &counters)
		defer it.Close()
		var out []Record
		var rec Record
		for it.Next(&rec) {
			out = append(out, rec)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return out, &counters
	}
	for trial := 0; trial < 50; trial++ {
		ra, dec := rng.Float64()*360, rng.Float64()*180-90
		box := SkyBoxPred{RaMin: ra, RaMax: ra + rng.Float64()*60, DecMin: dec, DecMax: dec + rng.Float64()*40}
		set := NewRowSet(covered)
		for r := range recs[:covered] {
			if box.Contains(float64(recs[r].Ra), float64(recs[r].Dec)) || rng.Intn(40) == 0 {
				set.Add(r)
			}
		}
		want, _ := drain(&box, nil)
		got, counters := drain(&box, set)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("box %+v: %d rows with the row set, %d without", box, len(got), len(want))
		}
		memberPages := 0
		for pg := 0; pg < covered/RecordsPerPage; pg++ {
			if set.next(pg*RecordsPerPage, (pg+1)*RecordsPerPage) < (pg+1)*RecordsPerPage {
				memberPages++
			}
		}
		tail := tb.NumPages() - covered/RecordsPerPage
		if scanned := int(counters.PagesScanned.Load()); scanned > memberPages+tail {
			t.Fatalf("box %+v: scanned %d pages, but only %d covered pages hold members and %d are tail", box, scanned, memberPages, tail)
		}
	}
}
