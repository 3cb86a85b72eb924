package sky

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/table"
)

// TestCellOfMonotone: the cell of a coordinate never decreases as the
// coordinate grows, stays inside the axis, and sends NaN and everything
// below the axis to the first cell — the property the index's
// exactness rests on. The values include every cell edge of a 158-cell
// ra axis and a 79-cell dec axis with their float64 neighbours.
func TestCellOfMonotone(t *testing.T) {
	for _, ax := range []struct {
		lo, span float64
		n        int
	}{{0, 360, 158}, {-90, 180, 79}, {0, 360, 2}, {-90, 180, 1}} {
		scale := float64(ax.n) / ax.span
		xs := []float64{math.Inf(-1), -math.MaxFloat64, -1e9, ax.lo - 1, math.Copysign(0, -1), 0,
			ax.lo + ax.span, ax.lo + ax.span + 1, 1e9, math.MaxFloat64, math.Inf(1)}
		for k := 0; k <= ax.n; k++ {
			edge := ax.lo + float64(k)/scale
			xs = append(xs, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)),
				float64(float32(edge)), float64(math.Nextafter32(float32(edge), float32(math.Inf(1)))))
		}
		slices.Sort(xs)
		prev := 0
		for _, x := range xs {
			c := cellOf(x, ax.lo, scale, ax.n)
			if c < 0 || c >= ax.n {
				t.Fatalf("axis %+v: cellOf(%v) = %d, outside [0,%d)", ax, x, c, ax.n)
			}
			if c < prev {
				t.Fatalf("axis %+v: cellOf(%v) = %d after %d: not monotone", ax, x, c, prev)
			}
			prev = c
		}
		if c := cellOf(math.NaN(), ax.lo, scale, ax.n); c != 0 {
			t.Fatalf("axis %+v: cellOf(NaN) = %d, want 0", ax, c)
		}
	}
}

// TestCellIndexRowsCoverBox: for seeded boxes — bounds drawn from the
// rows' own coordinates, from cell edges, and past the sky — the row
// set holds every covered row inside the box, covers only full pages,
// and is far smaller than the table for a small box.
func TestCellIndexRowsCoverBox(t *testing.T) {
	s, err := pagestore.Open(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := table.Create(s, "cat.tbl")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Generate(DefaultParams(6000, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Rows on the sky's edges and past them, spread over the pages.
	edges := [][2]float32{{0, 0}, {360, 0}, {-1, 5}, {400, -5}, {10, -90}, {20, 90}, {30, -100}, {40, 100}, {359.99997, 89.99999}}
	for i, e := range edges {
		recs[i*600].Ra, recs[i*600].Dec = e[0], e[1]
	}
	if err := tb.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	ix, err := BuildCellIndex(tb)
	if err != nil {
		t.Fatal(err)
	}
	full := len(recs) / table.RecordsPerPage * table.RecordsPerPage
	if ix.rows != full {
		t.Fatalf("index covers %d rows, want the %d of the full pages", ix.rows, full)
	}
	coord := func(rng *rand.Rand, ra bool) float64 {
		r := &recs[rng.Intn(len(recs))]
		switch rng.Intn(4) {
		case 0: // a row's own coordinate: the box edge passes through it
			if ra {
				return float64(r.Ra)
			}
			return float64(r.Dec)
		case 1: // a cell edge
			if ra {
				return float64(rng.Intn(ix.nRa+1)) / ix.raScale
			}
			return -90 + float64(rng.Intn(ix.nDec+1))/ix.decScale
		case 2: // past the sky
			return float64(rng.Intn(3)-1) * 1000
		}
		if ra {
			return rng.Float64() * 360
		}
		return rng.Float64()*180 - 90
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		box := table.SkyBoxPred{RaMin: coord(rng, true), RaMax: coord(rng, true), DecMin: coord(rng, false), DecMax: coord(rng, false)}
		if box.RaMin > box.RaMax {
			box.RaMin, box.RaMax = box.RaMax, box.RaMin
		}
		if box.DecMin > box.DecMax {
			box.DecMin, box.DecMax = box.DecMax, box.DecMin
		}
		set := ix.Rows(&box)
		if set.Covered() != full {
			t.Fatalf("row set covers %d rows, want %d", set.Covered(), full)
		}
		for i := range recs[:full] {
			if box.Contains(float64(recs[i].Ra), float64(recs[i].Dec)) && !set.Has(i) {
				t.Fatalf("box %+v: row %d at (%v, %v) is inside but not in the set", box, i, recs[i].Ra, recs[i].Dec)
			}
		}
	}

	small := table.SkyBoxPred{RaMin: 100, RaMax: 110, DecMin: 0, DecMax: 10}
	if n := ix.Rows(&small).Len(); n*20 > full {
		t.Errorf("a 10°×10° box keeps %d of %d rows", n, full)
	}
	inverted := table.SkyBoxPred{RaMin: 20, RaMax: 10, DecMin: 0, DecMax: 10}
	if n := ix.Rows(&inverted).Len(); n != 0 {
		t.Errorf("an inverted box keeps %d rows", n)
	}
}
