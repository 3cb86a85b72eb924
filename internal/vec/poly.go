package vec

import (
	"fmt"
	"strings"
)

// Halfspace is the region {x : A·x <= B}. Linear magnitude
// constraints such as the SkyServer query of Figure 2 — e.g.
// "dered_r - dered_i - (dered_g - dered_r)/4 < 0.38" — compile
// directly into halfspaces over the 5-D color space.
type Halfspace struct {
	A Point   // normal coefficients
	B float64 // offset
}

// NewHalfspace returns the halfspace {x : a·x <= b}.
func NewHalfspace(a Point, b float64) Halfspace {
	return Halfspace{A: a.Clone(), B: b}
}

// Dim returns the dimensionality of the halfspace.
func (h Halfspace) Dim() int { return len(h.A) }

// Contains reports whether p satisfies the constraint A·p <= B.
func (h Halfspace) Contains(p Point) bool { return h.A.Dot(p) <= h.B }

// Margin returns B - A·p: positive inside, negative outside,
// proportional to distance when A is unit length.
func (h Halfspace) Margin(p Point) float64 { return h.B - h.A.Dot(p) }

// boxRange returns the minimum and maximum of A·x over the box.
// Evaluating the linear form at the box corners axis-by-axis avoids
// enumerating all 2^d vertices.
func (h Halfspace) boxRange(b Box) (lo, hi float64) {
	checkDim(len(h.A), len(b.Min))
	for i, a := range h.A {
		if a >= 0 {
			lo += a * b.Min[i]
			hi += a * b.Max[i]
		} else {
			lo += a * b.Max[i]
			hi += a * b.Min[i]
		}
	}
	return lo, hi
}

// String formats the halfspace as "a·x <= b".
func (h Halfspace) String() string {
	return fmt.Sprintf("%v·x <= %.6g", h.A, h.B)
}

// Relation classifies how a convex region relates to a box or query
// volume. It is the three-way verdict of Figure 4: cells fully
// inside are bulk-returned, cells fully outside are rejected, and
// only partially covered cells need a per-point filter.
type Relation int

const (
	// Outside means the two regions are disjoint.
	Outside Relation = iota
	// Partial means the regions overlap but neither contains the other
	// (or containment could not be proven; the verdict is conservative).
	Partial
	// Inside means the tested region lies entirely within the query.
	Inside
)

// String returns "outside", "partial" or "inside".
func (r Relation) String() string {
	switch r {
	case Outside:
		return "outside"
	case Partial:
		return "partial"
	case Inside:
		return "inside"
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// Polyhedron is a convex region defined as the intersection of
// halfspaces. The zero value (no halfspaces) is the whole space.
type Polyhedron struct {
	Planes []Halfspace
}

// NewPolyhedron returns the intersection of the given halfspaces.
func NewPolyhedron(planes ...Halfspace) Polyhedron {
	ps := make([]Halfspace, len(planes))
	copy(ps, planes)
	return Polyhedron{Planes: ps}
}

// BoxPolyhedron expresses an axis-aligned box as a polyhedron of 2d
// halfspaces, so every box query can run through the generic
// polyhedron machinery.
func BoxPolyhedron(b Box) Polyhedron {
	d := b.Dim()
	planes := make([]Halfspace, 0, 2*d)
	for i := 0; i < d; i++ {
		hi := make(Point, d)
		hi[i] = 1
		planes = append(planes, Halfspace{A: hi, B: b.Max[i]})
		lo := make(Point, d)
		lo[i] = -1
		planes = append(planes, Halfspace{A: lo, B: -b.Min[i]})
	}
	return Polyhedron{Planes: planes}
}

// Dim returns the dimensionality of the polyhedron, or 0 when it has
// no planes.
func (q Polyhedron) Dim() int {
	if len(q.Planes) == 0 {
		return 0
	}
	return len(q.Planes[0].A)
}

// Contains reports whether p satisfies every halfspace.
func (q Polyhedron) Contains(p Point) bool {
	for _, h := range q.Planes {
		if !h.Contains(p) {
			return false
		}
	}
	return true
}

// ClassifyBox returns the relation of box b to the query polyhedron:
//
//   - Inside when every point of b satisfies all halfspaces,
//   - Outside when some single halfspace excludes all of b,
//   - Partial otherwise.
//
// The Outside verdict is conservative: a box can be disjoint from
// the polyhedron without any single plane separating it. Such boxes
// are classified Partial and eliminated by the per-point filter, so
// query answers stay exact — the cost is only a little extra I/O,
// exactly the trade the paper makes for its red "partially covered"
// cells (Figure 4).
func (q Polyhedron) ClassifyBox(b Box) Relation {
	inside := true
	for _, h := range q.Planes {
		lo, hi := h.boxRange(b)
		if lo > h.B {
			return Outside
		}
		if hi > h.B {
			inside = false
		}
	}
	if inside {
		return Inside
	}
	return Partial
}

// ClassifyBoxUnion returns the relation of box b to the union of the
// clauses — a DNF WHERE, matching where any clause matches: Inside any
// clause is Inside, Outside every clause is Outside (an empty set
// matches nothing), anything else is Partial. A set of one classifies
// exactly as its clause's ClassifyBox does. The verdict is conservative
// the same way: a box the clauses cover only jointly is Partial, and
// its rows are tested one by one.
func ClassifyBoxUnion(clauses []Polyhedron, b Box) Relation {
	rel := Outside
	for _, q := range clauses {
		switch q.ClassifyBox(b) {
		case Inside:
			return Inside
		case Partial:
			rel = Partial
		}
	}
	return rel
}

// ClassifySphere classifies the ball of radius r around center c:
// Inside when the whole ball satisfies every plane, Outside when
// some plane excludes the whole ball, Partial otherwise. Plane
// normals need not be unit length; margins are scaled by ‖A‖.
// This is the verdict the Voronoi cell index uses, since Voronoi
// cells are summarized by bounding spheres (§3.4).
func (q Polyhedron) ClassifySphere(c Point, r float64) Relation {
	if r < 0 {
		panic("vec: negative sphere radius")
	}
	inside := true
	for _, h := range q.Planes {
		norm := h.A.Norm()
		margin := h.Margin(c)
		if margin < -r*norm {
			return Outside
		}
		if margin < r*norm {
			inside = false
		}
	}
	if inside {
		return Inside
	}
	return Partial
}

// String formats the polyhedron as the conjunction of its planes.
func (q Polyhedron) String() string {
	if len(q.Planes) == 0 {
		return "{whole space}"
	}
	parts := make([]string, len(q.Planes))
	for i, h := range q.Planes {
		parts[i] = h.String()
	}
	return "{" + strings.Join(parts, " AND ") + "}"
}
