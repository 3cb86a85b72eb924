package table

import (
	"math"
	"sync/atomic"

	"repro/internal/vec"
)

// KeyBound is what an ordered LIMIT pushes into the scan: the ordering
// key and, once the consumer's k-row heap is full, its k-th key τ. A
// row keying strictly after τ can never be emitted, so `key ≤ τ` is one
// more constraint of the scan's predicate, whose constant the consumer
// tightens while the scan runs. The iterator
// reads τ once per page: a page whose zone proves every key strictly
// worse is skipped unread, and on a page it does read the test is ANDed
// into the match mask from the strips, so a losing row is never
// decoded. Rows tying τ pass to the consumer's (key, ObjID, RowID)
// comparator, so the answer is the unbounded scan's (DESIGN.md
// "Pushdown rules"), in whatever order its pages are visited.
//
// The key is linear or, for ORDER BY dist(p), quadratic: Σ(mᵢ−pᵢ)²
// (Dist2). Keys rank ascending: under DESC a linear bound negates its
// coefficients and K, a quadratic one its sum, which negates every key
// exactly (rounding is symmetric). Key is the one definition: the
// consumer ranks by it, τ is a value it returned, and the zone and
// strip tests repeat its operations in its order.
type KeyBound struct {
	coeffs [Dim]float64
	k      float64
	// dist makes the key quadratic about center; neg negates it (DESC).
	dist   bool
	neg    bool
	center [Dim]float64
	tau    atomic.Uint64 // float64 bits; +Inf until the first Tighten
}

// NewKeyBound returns the unpublished bound of one ordering: until the
// first Tighten the scan runs exactly as it would without it.
func NewKeyBound(coeffs []float64, k float64, desc bool) *KeyBound {
	b := &KeyBound{k: k}
	copy(b.coeffs[:], coeffs)
	if desc {
		b.k = -k
		for i := range b.coeffs {
			b.coeffs[i] = -b.coeffs[i]
		}
	}
	b.tau.Store(math.Float64bits(math.Inf(1)))
	return b
}

// NewDistBound returns the unpublished bound of ORDER BY dist(p): the
// key is Dist2(mags, p), negated under DESC.
func NewDistBound(p []float64, desc bool) *KeyBound {
	b := &KeyBound{dist: true, neg: desc}
	copy(b.center[:], p)
	b.tau.Store(math.Float64bits(math.Inf(1)))
	return b
}

// Dist2 is the squared distance from a row's magnitudes to p: each
// magnitude widened to float64, its difference from p squared, the
// squares summed by ascending axis — colorsql.OrderBy.Key's arithmetic
// for dist(p), and the one row distance every layer ranks neighbours
// by.
func Dist2(mags *[Dim]float32, p []float64) float64 {
	var s float64
	for i, v := range mags {
		d := float64(v) - p[i]
		s += d * d
	}
	return s
}

// Key returns the row's ranking key: Dist2 about the center for a
// quadratic bound; otherwise start at K and add c·m by ascending axis —
// colorsql.OrderBy.Key's arithmetic. Either is negated under DESC.
func (b *KeyBound) Key(mags *[Dim]float32) float64 {
	if b.dist {
		s := Dist2(mags, b.center[:])
		if b.neg {
			return -s
		}
		return s
	}
	s := b.k
	for i, c := range b.coeffs {
		s += c * float64(mags[i])
	}
	return s
}

// Tighten publishes the consumer's current k-th Key.
func (b *KeyBound) Tighten(key float64) { b.tau.Store(math.Float64bits(key)) }

// Tau returns τ and whether one that can prune has been published.
func (b *KeyBound) Tau() (tau float64, ok bool) {
	if b == nil {
		return 0, false
	}
	tau = math.Float64frombits(b.tau.Load())
	return tau, tau < math.Inf(1)
}

// best returns the best key any row of a box [lo, hi] can take — a page
// zone's or a kd node's tight bounds: no row of the box keys below it,
// so the box is excluded by τ exactly when best > τ. For a linear key it
// sits at the corner taking each axis' minimum where the coefficient is
// positive and its maximum where negative; it is accumulated as Key
// accumulates a row's, and float multiply and add are monotone. For a
// quadratic key it is mindist²(box, p) (vec.Box.Dist2), or under DESC
// minus maxdist²(box, p) (vec.Box.MaxDist2): per axis the box's term is
// the square of a difference rounded no nearer (farther) than any row's,
// and the terms are summed in Dist2's order. A box nested in another
// keys no better than it, so a kd node's best bounds its subtree's.
func (b *KeyBound) best(lo, hi []float64) float64 {
	if b.dist {
		box := vec.Box{Min: lo, Max: hi}
		if b.neg {
			return -box.MaxDist2(b.center[:])
		}
		return box.Dist2(b.center[:])
	}
	s := b.k
	for i, c := range b.coeffs {
		if c < 0 {
			s += c * hi[i]
		} else {
			s += c * lo[i]
		}
	}
	return s
}

// BoxBest is best over a box, −Inf where it is NaN: nothing can exclude
// such a box. The kd walk keys its nodes by it, as PageBests keys pages.
func (b *KeyBound) BoxBest(box vec.Box) float64 {
	if v := b.best(box.Min, box.Max); !math.IsNaN(v) {
		return v
	}
	return math.Inf(-1)
}

// PageBests calls fn with the best key of each page in [first, end)
// under one read lock of the zones: the value τ is tested against
// before the page is read, so a page is skipped exactly when its best
// key is > τ. A page with no zone, or whose best key is NaN, gets −Inf:
// nothing can exclude it. fn must not call back into zones.
func (b *KeyBound) PageBests(zones *ZoneMaps, first, end int, fn func(pg int, best float64)) {
	zones.mu.RLock()
	defer zones.mu.RUnlock()
	for pg := first; pg < end; pg++ {
		best := math.Inf(-1)
		if pg < len(zones.zones) {
			z := &zones.zones[pg]
			best = b.BoxBest(vec.Box{Min: z.Min[:], Max: z.Max[:]})
		}
		fn(pg, best)
	}
}

// evalStrips keys the page's slots [lo, lo+len(match)) from their
// magnitude strips into sc.acc, in Key's arithmetic (a zero coefficient
// adds a zero there and is skipped here), and tests them against tau:
// match[j] stays (and) or becomes (!and) true only where the row's key
// is not strictly after tau. Returns the number of strips it decoded
// beyond those loaded marks.
func (b *KeyBound) evalStrips(data []byte, lo int, loaded *[Dim]bool, sc *stripScratch, match []bool, tau float64, and bool) int {
	hi := lo + len(match)
	acc := sc.acc[lo:hi]
	decoded := 0
	if b.dist {
		clear(acc)
		for axis, c := range b.center {
			decoded += sc.load(data, axis, lo, hi, loaded)
			for j, v := range sc.mags[axis][lo:hi] {
				d := v - c
				acc[j] += d * d
			}
		}
		if b.neg {
			for j := range acc {
				acc[j] = -acc[j]
			}
		}
	} else {
		for j := range acc {
			acc[j] = b.k
		}
		for axis, c := range b.coeffs {
			if c == 0 {
				continue
			}
			decoded += sc.load(data, axis, lo, hi, loaded)
			for j, v := range sc.mags[axis][lo:hi] {
				acc[j] += c * v
			}
		}
	}
	for j, s := range acc {
		// Negated comparison: a NaN key is kept for the consumer to rank.
		match[j] = (match[j] || !and) && !(s > tau)
	}
	return decoded
}
