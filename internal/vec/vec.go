// Package vec provides the d-dimensional geometric primitives the
// spatial indexes are built from: points, axis-aligned boxes,
// halfspaces and convex polyhedra.
//
// The paper (Csabai et al., CIDR 2007) frames every scientific query
// as a convex polyhedron in the 5-dimensional SDSS magnitude space;
// all index structures ultimately answer "which points lie inside
// this polyhedron" or "which points are nearest to this one". This
// package supplies the exact geometric predicates those structures
// need, in any dimension.
package vec

import (
	"fmt"
	"math"
)

// Point is a point (or vector) in d-dimensional space. The dimension
// is the slice length; all operations require operands of equal
// dimension and panic otherwise, since a dimension mismatch is a
// programming error, never a data error.
type Point []float64

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p) }

// Add returns p + q as a new point.
func (p Point) Add(q Point) Point {
	checkDim(len(p), len(q))
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p - q as a new point.
func (p Point) Sub(q Point) Point {
	checkDim(len(p), len(q))
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// Dot returns the inner product of p and q.
func (p Point) Dot(q Point) float64 {
	checkDim(len(p), len(q))
	var s float64
	for i := range p {
		s += p[i] * q[i]
	}
	return s
}

// Norm returns the Euclidean length of p.
func (p Point) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Sqrt(p.Dist2(q)) }

// Dist2 returns the squared Euclidean distance between p and q.
// Squared distances avoid the square root in hot comparison loops;
// the kd-tree and kNN code compare distances exclusively through
// Dist2.
func (p Point) Dist2(q Point) float64 {
	checkDim(len(p), len(q))
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Equal reports whether p and q are identical coordinate-wise.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String formats the point as "(x0, x1, ...)" with compact precision.
func (p Point) String() string {
	s := "("
	for i, v := range p {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.6g", v)
	}
	return s + ")"
}

// Mean returns the coordinate-wise mean of the given points. It
// panics if pts is empty.
func Mean(pts []Point) Point {
	if len(pts) == 0 {
		panic("vec: Mean of empty point set")
	}
	m := make(Point, len(pts[0]))
	for _, p := range pts {
		checkDim(len(m), len(p))
		for i := range m {
			m[i] += p[i]
		}
	}
	inv := 1 / float64(len(pts))
	for i := range m {
		m[i] *= inv
	}
	return m
}

func checkDim(a, b int) {
	if a != b {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", a, b))
	}
}
