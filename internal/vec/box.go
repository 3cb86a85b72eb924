package vec

import (
	"fmt"
	"math"
)

// Box is a d-dimensional axis-aligned bounding box, closed on both
// ends: a point p is contained when Min[i] <= p[i] <= Max[i] for all
// i. Boxes are the cell shape of both the layered uniform grid
// (§3.1) and the kd-tree (§3.2) of the paper.
type Box struct {
	Min, Max Point
}

// NewBox returns the box spanning [min, max]. It panics if the
// corners disagree in dimension or are inverted on any axis.
func NewBox(min, max Point) Box {
	checkDim(len(min), len(max))
	for i := range min {
		if min[i] > max[i] {
			panic(fmt.Sprintf("vec: inverted box on axis %d: %g > %g", i, min[i], max[i]))
		}
	}
	return Box{Min: min.Clone(), Max: max.Clone()}
}

// UnitBox returns the box [0,1]^dim.
func UnitBox(dim int) Box {
	min := make(Point, dim)
	max := make(Point, dim)
	for i := range max {
		max[i] = 1
	}
	return Box{Min: min, Max: max}
}

// EmptyBox returns an "inside-out" box suitable as the identity for
// Extend: every axis has Min=+Inf, Max=-Inf.
func EmptyBox(dim int) Box {
	min := make(Point, dim)
	max := make(Point, dim)
	for i := 0; i < dim; i++ {
		min[i] = math.Inf(1)
		max[i] = math.Inf(-1)
	}
	return Box{Min: min, Max: max}
}

// BoundingBox returns the smallest box containing all pts. It panics
// if pts is empty.
func BoundingBox(pts []Point) Box {
	if len(pts) == 0 {
		panic("vec: BoundingBox of empty point set")
	}
	b := EmptyBox(len(pts[0]))
	for _, p := range pts {
		b.ExtendPoint(p)
	}
	return b
}

// Dim returns the dimensionality of the box.
func (b Box) Dim() int { return len(b.Min) }

// Clone returns an independent copy of b.
func (b Box) Clone() Box {
	return Box{Min: b.Min.Clone(), Max: b.Max.Clone()}
}

// IsEmpty reports whether the box contains no points (some axis has
// Min > Max, as produced by EmptyBox before any Extend).
func (b Box) IsEmpty() bool {
	for i := range b.Min {
		if b.Min[i] > b.Max[i] {
			return true
		}
	}
	return false
}

// Contains reports whether p lies inside the closed box.
func (b Box) Contains(p Point) bool {
	checkDim(len(b.Min), len(p))
	for i := range p {
		if p[i] < b.Min[i] || p[i] > b.Max[i] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether the closed box o lies entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	checkDim(len(b.Min), len(o.Min))
	for i := range b.Min {
		if o.Min[i] < b.Min[i] || o.Max[i] > b.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether b and o share at least one point
// (touching faces count).
func (b Box) Intersects(o Box) bool {
	checkDim(len(b.Min), len(o.Min))
	for i := range b.Min {
		if b.Max[i] < o.Min[i] || o.Max[i] < b.Min[i] {
			return false
		}
	}
	return true
}

// ExtendPoint grows the box in place so it contains p.
func (b *Box) ExtendPoint(p Point) {
	checkDim(len(b.Min), len(p))
	for i := range p {
		if p[i] < b.Min[i] {
			b.Min[i] = p[i]
		}
		if p[i] > b.Max[i] {
			b.Max[i] = p[i]
		}
	}
}

// ExtendBox grows the box in place so it contains o.
func (b *Box) ExtendBox(o Box) {
	b.ExtendPoint(o.Min)
	b.ExtendPoint(o.Max)
}

// Center returns the midpoint of the box.
func (b Box) Center() Point {
	c := make(Point, len(b.Min))
	for i := range c {
		c[i] = (b.Min[i] + b.Max[i]) / 2
	}
	return c
}

// Side returns the extent of the box along the given axis.
func (b Box) Side(axis int) float64 { return b.Max[axis] - b.Min[axis] }

// LongestAxis returns the axis with the largest extent.
func (b Box) LongestAxis() int {
	best, bestLen := 0, math.Inf(-1)
	for i := range b.Min {
		if l := b.Max[i] - b.Min[i]; l > bestLen {
			best, bestLen = i, l
		}
	}
	return best
}

// Volume returns the d-dimensional volume (product of side lengths).
// An empty box has volume 0.
func (b Box) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	v := 1.0
	for i := range b.Min {
		v *= b.Max[i] - b.Min[i]
	}
	return v
}

// Elongation returns the ratio of the longest to the shortest side,
// the paper's measure of how "elongated" kd-tree boxes become on
// clustered data (§3.4, Figure 15). A degenerate box (zero shortest
// side) returns +Inf; a cube returns 1.
func (b Box) Elongation() float64 {
	longest, shortest := math.Inf(-1), math.Inf(1)
	for i := range b.Min {
		s := b.Max[i] - b.Min[i]
		longest = math.Max(longest, s)
		shortest = math.Min(shortest, s)
	}
	if shortest <= 0 {
		return math.Inf(1)
	}
	return longest / shortest
}

// Split cuts the box at value v along the given axis and returns the
// low and high halves. v is clamped into the box so both halves are
// always valid.
func (b Box) Split(axis int, v float64) (lo, hi Box) {
	v = math.Max(b.Min[axis], math.Min(b.Max[axis], v))
	lo, hi = b.Clone(), b.Clone()
	lo.Max[axis] = v
	hi.Min[axis] = v
	return lo, hi
}

// ClosestPoint returns the point inside the box nearest to p (p
// itself when contained).
func (b Box) ClosestPoint(p Point) Point {
	checkDim(len(b.Min), len(p))
	q := make(Point, len(p))
	for i := range p {
		q[i] = math.Max(b.Min[i], math.Min(b.Max[i], p[i]))
	}
	return q
}

// Dist2 returns the squared distance from p to the box (0 when p is
// inside). This is the pruning bound used by the kNN search: a
// kd-box whose Dist2 exceeds the current k-th neighbour distance can
// never contribute.
func (b Box) Dist2(p Point) float64 {
	checkDim(len(b.Min), len(p))
	var s float64
	for i := range p {
		if d := b.Min[i] - p[i]; d > 0 {
			s += d * d
		} else if d := p[i] - b.Max[i]; d > 0 {
			s += d * d
		}
	}
	return s
}

// MaxDist2 returns the squared distance from p to the farthest point
// of the box.
func (b Box) MaxDist2(p Point) float64 {
	checkDim(len(b.Min), len(p))
	var s float64
	for i := range p {
		lo := math.Abs(p[i] - b.Min[i])
		hi := math.Abs(p[i] - b.Max[i])
		d := math.Max(lo, hi)
		s += d * d
	}
	return s
}

// Sample returns a point uniformly distributed in the box, using the
// caller-supplied source of uniforms in [0,1) (one value consumed
// per axis, in axis order).
func (b Box) Sample(uniform func() float64) Point {
	p := make(Point, len(b.Min))
	for i := range p {
		p[i] = b.Min[i] + uniform()*(b.Max[i]-b.Min[i])
	}
	return p
}

// String formats the box as "[min .. max]".
func (b Box) String() string {
	return fmt.Sprintf("[%v .. %v]", b.Min, b.Max)
}
