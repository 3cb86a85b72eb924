package hull

import (
	"math/rand"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

func TestBuildContainsTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		dim := 2 + rng.Intn(4)
		pts := make([]vec.Point, 20)
		for i := range pts {
			p := make(vec.Point, dim)
			for d := range p {
				p[d] = rng.NormFloat64()
			}
			pts[i] = p
		}
		h, err := Build(pts, DefaultParams(dim))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if !h.Contains(p) {
				t.Fatalf("iter %d: training point %d outside its own hull", iter, i)
			}
		}
	}
}

func TestBuildExcludesFarPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]vec.Point, 30)
	for i := range pts {
		pts[i] = vec.Point{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1}
	}
	h, err := Build(pts, DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if h.Contains(vec.Point{5, 5}) || h.Contains(vec.Point{-5, 0}) {
		t.Error("far points inside the hull")
	}
}

func TestObliqueDirectionsTighten(t *testing.T) {
	// Training points on a diagonal segment: the axis-only hull is a
	// square, oblique directions cut its empty corners.
	var pts []vec.Point
	for i := 0; i <= 20; i++ {
		tt := float64(i) / 20
		pts = append(pts, vec.Point{tt, tt})
	}
	axisOnly, err := Build(pts, Params{Oblique: 0, Margin: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Build(pts, Params{Oblique: 64, Margin: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	corner := vec.Point{0.95, 0.05} // inside the box, far from the diagonal
	if !axisOnly.Contains(corner) {
		t.Fatal("axis-only hull should be the bounding box")
	}
	if tight.Contains(corner) {
		// good: tightened
	} else {
		t.Log("oblique hull cut the empty corner")
	}
	// Monte-Carlo area comparison: tight hull must be smaller.
	rng := rand.New(rand.NewSource(3))
	var inAxis, inTight int
	for i := 0; i < 20000; i++ {
		p := vec.Point{rng.Float64(), rng.Float64()}
		if axisOnly.Contains(p) {
			inAxis++
		}
		if tight.Contains(p) {
			inTight++
		}
	}
	if inTight >= inAxis {
		t.Errorf("oblique hull not tighter: %d vs %d hits", inTight, inAxis)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build([]vec.Point{{1, 2}}, DefaultParams(2)); err == nil {
		t.Error("single point should fail")
	}
	if _, err := Build([]vec.Point{{1, 2}, {3, 4}}, Params{Oblique: -1}); err == nil {
		t.Error("negative oblique should fail")
	}
}

// TestQuasarRetrieval is the §2.2 scenario end to end: a small
// training set of confirmed quasars, a hull around them, and a
// polyhedron query retrieving candidates — most of which should be
// quasars.
func TestQuasarRetrieval(t *testing.T) {
	s, err := pagestore.Open(t.TempDir(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := table.Create(s, "mag.tbl")
	if err != nil {
		t.Fatal(err)
	}
	if err := sky.GenerateTable(tb, sky.DefaultParams(20000, 42)); err != nil {
		t.Fatal(err)
	}

	// Training set: the first 40 quasars with "spectroscopic"
	// confirmation (the <1% of objects whose type is known).
	var training []vec.Point
	var totalQuasars int
	tb.Scan(func(id table.RowID, r *table.Record) bool {
		if r.Class == table.Quasar {
			totalQuasars++
			if r.HasZ && len(training) < 40 {
				training = append(training, r.Point())
			}
		}
		return true
	})
	if len(training) < 10 {
		t.Skipf("only %d confirmed quasars in sample", len(training))
	}

	p := DefaultParams(table.Dim)
	p.Margin = 0.5 // generous: the training set is tiny
	h, err := Build(training, p)
	if err != nil {
		t.Fatal(err)
	}
	var candidates, hits int
	tb.Scan(func(_ table.RowID, r *table.Record) bool {
		if h.Contains(r.Point()) {
			candidates++
			if r.Class == table.Quasar {
				hits++
			}
		}
		return true
	})
	if candidates < len(training) {
		t.Fatalf("hull retrieved %d < %d training points", candidates, len(training))
	}
	precision := float64(hits) / float64(candidates)
	recall := float64(hits) / float64(totalQuasars)
	t.Logf("hull retrieval: %d candidates, precision %.2f, recall %.2f", candidates, precision, recall)
	// Quasars are 6.5% of the catalog; the hull must enrich strongly
	// and catch a sizeable share of the class.
	if precision < 0.5 {
		t.Errorf("precision %.2f < 0.5", precision)
	}
	if recall < 0.3 {
		t.Errorf("recall %.2f < 0.3", recall)
	}
}
