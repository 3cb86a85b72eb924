package table

import (
	"math"
	"sync/atomic"
)

// KeyBound is what an ordered LIMIT pushes into the scan: the linear
// ordering key K + Σ cᵢ·mᵢ and, once the consumer's k-row heap is full,
// its k-th key τ. A row keying strictly after τ can never be emitted,
// so `key ≤ τ` is one more half-space of the scan's predicate, whose
// constant the consumer tightens while the scan runs. The iterator
// reads τ once per page: a page whose zone proves every key strictly
// worse is skipped unread, and on a page it does read the test is ANDed
// into the match mask from the strips, so a losing row is never
// decoded. Rows tying τ pass to the consumer's (key, ObjID, arrival)
// comparator, so the answer is the unbounded scan's (DESIGN.md
// "Pushdown rules").
//
// Keys rank ascending: under DESC the coefficients and K are negated,
// which negates every key exactly (rounding is symmetric). Key is the
// one definition: the consumer ranks by it, τ is a value it returned,
// and the zone and strip tests repeat its operations in its order.
type KeyBound struct {
	coeffs [Dim]float64
	k      float64
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

// Key returns the row's ranking key: start at K, add c·m by ascending
// axis — colorsql.OrderBy.Key's arithmetic, negated under DESC.
func (b *KeyBound) Key(mags *[Dim]float32) float64 {
	s := b.k
	for i, c := range b.coeffs {
		s += c * float64(mags[i])
	}
	return s
}

// Tighten publishes the consumer's current k-th Key.
func (b *KeyBound) Tighten(key float64) { b.tau.Store(math.Float64bits(key)) }

// load returns τ and whether one that can prune has been published.
func (b *KeyBound) load() (tau float64, ok bool) {
	if b == nil {
		return 0, false
	}
	tau = math.Float64frombits(b.tau.Load())
	return tau, tau < math.Inf(1)
}

// excludes reports whether every row of the zone box keys strictly
// after tau. The best key the box allows sits at the corner taking each
// axis' minimum where the coefficient is positive and its maximum where
// negative; it is accumulated as Key accumulates a row's, and float
// multiply and add are monotone, so no row of the box keys below it.
func (b *KeyBound) excludes(z *PageZone, tau float64) bool {
	s := b.k
	for i, c := range b.coeffs {
		if c < 0 {
			s += c * z.Max[i]
		} else {
			s += c * z.Min[i]
		}
	}
	return s > tau
}

// evalStrips tests the page's rows against tau from their magnitude
// strips, in Key's arithmetic (a zero coefficient adds a zero there and
// is skipped here): match[j] stays (and) or becomes (!and) true only
// where row j's key is not strictly after tau. Returns the number of
// strips it decoded beyond those loaded marks.
func (b *KeyBound) evalStrips(data []byte, loaded *[Dim]bool, sc *stripScratch, match []bool, tau float64, and bool) int {
	n := len(match)
	acc := sc.acc[:n]
	for j := range acc {
		acc[j] = b.k
	}
	decoded := 0
	for axis, c := range b.coeffs {
		if c == 0 {
			continue
		}
		decoded += sc.load(data, axis, n, loaded)
		for j, v := range sc.mags[axis][:n] {
			acc[j] += c * v
		}
	}
	for j, s := range acc {
		// Negated comparison: a NaN key is kept for the consumer to rank.
		match[j] = (match[j] || !and) && !(s > tau)
	}
	return decoded
}
