package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2, 3}
	q := Point{4, 5, 6}
	if got := p.Add(q); !got.Equal(Point{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); !got.Equal(Point{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Dot(q); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := p.Dist2(q); got != 27 {
		t.Errorf("Dist2 = %v, want 27", got)
	}
	if got := p.Dist(q); math.Abs(got-math.Sqrt(27)) > 1e-12 {
		t.Errorf("Dist = %v", got)
	}
}

func TestPointCloneIndependent(t *testing.T) {
	p := Point{1, 2}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestMean(t *testing.T) {
	m := Mean([]Point{{0, 0}, {2, 4}, {4, 8}})
	if !m.Equal(Point{2, 4}) {
		t.Errorf("Mean = %v", m)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Point{1}.Add(Point{1, 2})
}

func TestBoxContains(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{1, 2})
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0.5, 1}, true},
		{Point{0, 0}, true}, // boundary is closed
		{Point{1, 2}, true}, // far corner closed
		{Point{1.01, 1}, false},
		{Point{-0.01, 1}, false},
		{Point{0.5, 2.5}, false},
	}
	for _, c := range cases {
		if got := b.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBoxIntersects(t *testing.T) {
	a := NewBox(Point{0, 0}, Point{1, 1})
	if !a.Intersects(NewBox(Point{0.5, 0.5}, Point{2, 2})) {
		t.Error("overlapping boxes reported disjoint")
	}
	if !a.Intersects(NewBox(Point{1, 0}, Point{2, 1})) {
		t.Error("touching boxes should intersect")
	}
	if a.Intersects(NewBox(Point{1.1, 0}, Point{2, 1})) {
		t.Error("disjoint boxes reported intersecting")
	}
}

func TestBoxExtendAndBounding(t *testing.T) {
	b := EmptyBox(2)
	if !b.IsEmpty() {
		t.Fatal("EmptyBox not empty")
	}
	b.ExtendPoint(Point{1, 5})
	b.ExtendPoint(Point{-2, 3})
	if !b.Min.Equal(Point{-2, 3}) || !b.Max.Equal(Point{1, 5}) {
		t.Errorf("after extend: %v", b)
	}
	bb := BoundingBox([]Point{{1, 5}, {-2, 3}})
	if !bb.Min.Equal(b.Min) || !bb.Max.Equal(b.Max) {
		t.Errorf("BoundingBox = %v", bb)
	}
}

func TestBoxGeometry(t *testing.T) {
	b := NewBox(Point{0, 0, 0}, Point{2, 4, 1})
	if got := b.Center(); !got.Equal(Point{1, 2, 0.5}) {
		t.Errorf("Center = %v", got)
	}
	if got := b.Volume(); got != 8 {
		t.Errorf("Volume = %v", got)
	}
	if got := b.LongestAxis(); got != 1 {
		t.Errorf("LongestAxis = %v", got)
	}
	if got := b.Elongation(); got != 4 {
		t.Errorf("Elongation = %v", got)
	}
}

func TestBoxSplit(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{4, 4})
	lo, hi := b.Split(0, 1)
	if lo.Max[0] != 1 || hi.Min[0] != 1 {
		t.Errorf("Split = %v / %v", lo, hi)
	}
	lo, hi = b.Split(1, 99) // clamped
	if lo.Max[1] != 4 || hi.Min[1] != 4 {
		t.Errorf("clamped Split = %v / %v", lo, hi)
	}
}

func TestBoxDist2(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{1, 1})
	if got := b.Dist2(Point{0.5, 0.5}); got != 0 {
		t.Errorf("inside Dist2 = %v", got)
	}
	if got := b.Dist2(Point{2, 1}); got != 1 {
		t.Errorf("Dist2 = %v", got)
	}
	if got := b.Dist2(Point{2, 2}); got != 2 {
		t.Errorf("corner Dist2 = %v", got)
	}
	if got := b.MaxDist2(Point{0, 0}); got != 2 {
		t.Errorf("MaxDist2 = %v", got)
	}
}

func TestBoxClosestPoint(t *testing.T) {
	b := NewBox(Point{0, 0}, Point{1, 1})
	if got := b.ClosestPoint(Point{2, 0.5}); !got.Equal(Point{1, 0.5}) {
		t.Errorf("ClosestPoint = %v", got)
	}
	if got := b.ClosestPoint(Point{0.3, 0.7}); !got.Equal(Point{0.3, 0.7}) {
		t.Errorf("interior ClosestPoint = %v", got)
	}
}

func TestBoxSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBox(Point{-1, 2}, Point{1, 3})
	for i := 0; i < 100; i++ {
		p := b.Sample(rng.Float64)
		if !b.Contains(p) {
			t.Fatalf("sample %v outside box", p)
		}
	}
}

func TestHalfspace(t *testing.T) {
	// x + y <= 1
	h := NewHalfspace(Point{1, 1}, 1)
	if !h.Contains(Point{0, 0}) || !h.Contains(Point{0.5, 0.5}) {
		t.Error("points inside reported outside")
	}
	if h.Contains(Point{1, 1}) {
		t.Error("point outside reported inside")
	}
	if got := h.Margin(Point{0, 0}); got != 1 {
		t.Errorf("Margin = %v", got)
	}
}

func TestPolyhedronContains(t *testing.T) {
	// triangle x >= 0, y >= 0, x+y <= 1
	tri := NewPolyhedron(
		NewHalfspace(Point{-1, 0}, 0),
		NewHalfspace(Point{0, -1}, 0),
		NewHalfspace(Point{1, 1}, 1),
	)
	if !tri.Contains(Point{0.2, 0.2}) {
		t.Error("interior point excluded")
	}
	if tri.Contains(Point{0.9, 0.9}) {
		t.Error("exterior point included")
	}
	if !tri.Contains(Point{0, 0}) {
		t.Error("vertex should be included (closed region)")
	}
}

func TestClassifyBox(t *testing.T) {
	tri := NewPolyhedron(
		NewHalfspace(Point{-1, 0}, 0),
		NewHalfspace(Point{0, -1}, 0),
		NewHalfspace(Point{1, 1}, 1),
	)
	cases := []struct {
		b    Box
		want Relation
	}{
		{NewBox(Point{0.1, 0.1}, Point{0.2, 0.2}), Inside},
		{NewBox(Point{2, 2}, Point{3, 3}), Outside},
		{NewBox(Point{0, 0}, Point{1, 1}), Partial},
		{NewBox(Point{-1, -1}, Point{-0.5, -0.5}), Outside},
	}
	for _, c := range cases {
		if got := tri.ClassifyBox(c.b); got != c.want {
			t.Errorf("ClassifyBox(%v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestClassifySphere(t *testing.T) {
	// halfplane x <= 0 with non-unit normal 2x <= 0
	q := NewPolyhedron(NewHalfspace(Point{2, 0}, 0))
	if got := q.ClassifySphere(Point{-2, 0}, 1); got != Inside {
		t.Errorf("sphere well inside = %v", got)
	}
	if got := q.ClassifySphere(Point{2, 0}, 1); got != Outside {
		t.Errorf("sphere well outside = %v", got)
	}
	if got := q.ClassifySphere(Point{0, 0}, 1); got != Partial {
		t.Errorf("straddling sphere = %v", got)
	}
}

func TestBoxPolyhedronEquivalence(t *testing.T) {
	b := NewBox(Point{0, -1, 2}, Point{1, 1, 3})
	q := BoxPolyhedron(b)
	rng := rand.New(rand.NewSource(7))
	dom := NewBox(Point{-2, -3, 0}, Point{3, 3, 5})
	for i := 0; i < 500; i++ {
		p := dom.Sample(rng.Float64)
		if b.Contains(p) != q.Contains(p) {
			t.Fatalf("box %v and polyhedron disagree at %v", b, p)
		}
	}
}

func TestRelationString(t *testing.T) {
	if Inside.String() != "inside" || Outside.String() != "outside" || Partial.String() != "partial" {
		t.Error("Relation strings wrong")
	}
}

// randomPoly builds a random polyhedron of k halfspaces with normals
// and offsets drawn from rng.
func randomPoly(rng *rand.Rand, dim, k int) Polyhedron {
	planes := make([]Halfspace, k)
	for i := range planes {
		a := make(Point, dim)
		for j := range a {
			a[j] = rng.NormFloat64()
		}
		planes[i] = Halfspace{A: a, B: rng.NormFloat64()}
	}
	return Polyhedron{Planes: planes}
}

// Property: ClassifyBox verdicts are consistent with point membership.
// Every sampled point of an Inside box must be contained; no sampled
// point of an Outside box may be contained.
func TestClassifyBoxSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		dim := 2 + rng.Intn(4)
		q := randomPoly(rng, dim, 1+rng.Intn(5))
		center := make(Point, dim)
		for j := range center {
			center[j] = rng.NormFloat64()
		}
		half := rng.Float64() + 0.01
		min, max := make(Point, dim), make(Point, dim)
		for j := range center {
			min[j], max[j] = center[j]-half, center[j]+half
		}
		b := NewBox(min, max)
		rel := q.ClassifyBox(b)
		for s := 0; s < 30; s++ {
			p := b.Sample(rng.Float64)
			in := q.Contains(p)
			if rel == Inside && !in {
				t.Fatalf("Inside box %v has excluded point %v (query %v)", b, p, q)
			}
			if rel == Outside && in {
				t.Fatalf("Outside box %v has included point %v (query %v)", b, p, q)
			}
		}
	}
}

// Property: Dist2(p, box) == |p - ClosestPoint(p)|^2.
func TestBoxDist2MatchesClosestPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(5)
		min, max := make(Point, dim), make(Point, dim)
		for i := range min {
			a, b := r.NormFloat64(), r.NormFloat64()
			min[i], max[i] = math.Min(a, b), math.Max(a, b)
		}
		b := NewBox(min, max)
		p := make(Point, dim)
		for i := range p {
			p[i] = 3 * r.NormFloat64()
		}
		d2 := b.Dist2(p)
		cp := b.ClosestPoint(p)
		return math.Abs(d2-p.Dist2(cp)) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: halfspace boxRange brackets A·x for every sampled x in the box.
func TestBoxRangeBrackets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		dim := 1 + rng.Intn(5)
		a := make(Point, dim)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		h := Halfspace{A: a, B: 0}
		min, max := make(Point, dim), make(Point, dim)
		for i := range min {
			x, y := rng.NormFloat64(), rng.NormFloat64()
			min[i], max[i] = math.Min(x, y), math.Max(x, y)
		}
		b := NewBox(min, max)
		lo, hi := h.boxRange(b)
		for s := 0; s < 20; s++ {
			v := a.Dot(b.Sample(rng.Float64))
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("boxRange [%v,%v] does not bracket %v", lo, hi, v)
			}
		}
	}
}
