package grid

import (
	"testing"

	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// TestSampleStreamMatchesSample checks Sample and SampleStream against
// a reference walk written out plainly: layer by layer, the layer's
// intersecting cells in their shuffled order, each cell's rows read one
// by one from the directory range and tested against the box, stopping
// at the n-th row.
func TestSampleStreamMatchesSample(t *testing.T) {
	ix, _ := buildIndex(t, 10000, 256)
	q := vec.NewBox(vec.Point{15, 15, 14}, vec.Point{23, 22, 21})
	const n = 500

	var want []int64
walk:
	for l := 1; l <= len(ix.layers); l++ {
		res := ix.layers[l-1].res
		codes := intersectingCells(q, ix.params.Domain, res, ix.params.ProjDim)
		shuffleCodes(codes, ix.params.Seed+int64(l))
		for _, code := range codes {
			rng, ok := ix.dir[cellKey{layer: l, code: code}]
			if !ok {
				continue
			}
			for id := rng.start; id < rng.start+table.RowID(rng.count); id++ {
				var r table.Record
				if err := ix.tbl.Get(id, &r); err != nil {
					t.Fatal(err)
				}
				m := mags(&r)
				if !q.Contains(m[:ix.params.ProjDim]) {
					continue
				}
				want = append(want, r.ObjID)
				if len(want) == n {
					break walk
				}
			}
		}
	}
	if len(want) != n {
		t.Fatalf("reference walk found %d rows, want the box to hold at least %d", len(want), n)
	}

	recs, _, err := ix.Sample(q, n)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []table.Record
	stats, err := ix.SampleStream(q, n, func(r *table.Record) bool {
		streamed = append(streamed, *r)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]table.Record{"Sample": recs, "SampleStream": streamed} {
		if len(got) != len(want) {
			t.Fatalf("%s delivered %d rows, reference %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].ObjID != want[i] {
				t.Fatalf("%s row %d is objid %d, reference %d", name, i, got[i].ObjID, want[i])
			}
		}
	}
	if stats.Returned != len(streamed) {
		t.Errorf("stats.Returned = %d", stats.Returned)
	}
}

func TestSampleStreamCancellation(t *testing.T) {
	ix, _ := buildIndex(t, 5000, 256)
	q := vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3])
	delivered := 0
	stats, err := ix.SampleStream(q, 1000, func(r *table.Record) bool {
		delivered++
		return delivered < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 10 {
		t.Errorf("cancelled stream delivered %d", delivered)
	}
	if stats.Returned != 9 {
		// The 10th yield returned false: 9 accepted deliveries.
		t.Errorf("stats.Returned = %d, want 9", stats.Returned)
	}
}

func TestSampleStreamDimMismatch(t *testing.T) {
	ix, _ := buildIndex(t, 1000, 64)
	if _, err := ix.SampleStream(vec.UnitBox(2), 5, func(*table.Record) bool { return true }); err == nil {
		t.Error("expected dim mismatch error")
	}
}

func TestSampleStreamEarlyLayersFirst(t *testing.T) {
	// Streaming must deliver layer-1 records before layer-2 records:
	// the client can render a coarse view immediately.
	ix, _ := buildIndex(t, 20000, 256)
	q := vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3])
	var layers []uint16
	_, err := ix.SampleStream(q, 2000, func(r *table.Record) bool {
		layers = append(layers, r.Layer)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(layers); i++ {
		if layers[i] < layers[i-1] {
			t.Fatalf("layer order violated at %d: %d after %d", i, layers[i], layers[i-1])
		}
	}
}
