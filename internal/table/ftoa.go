package table

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
)

// This file renders the float32 columns as text: the shortest decimal
// that parses back to exactly the stored value, in two layouts over one
// digit generator. AppendFloat32 is byte for byte what
// strconv.AppendFloat(dst, float64(v), 'g', -1, 32) writes (the row
// encoder's and the INSERT printer's layout); AppendJSONFloat32 is what
// encoding/json writes for a float32 field. Both are pinned against the
// standard library over all 2³² bit patterns
// (TestAppendFloat32Exhaustive).
//
// The digits come from Dragonbox (J. Jeon, "Dragonbox: A New
// Floating-Point Binary-to-Decimal Conversion Algorithm", 2020) at
// binary32 with κ = 1: one 64×32-bit multiply scales the rounding
// interval's upper end by a 64-bit power of ten, and a divide by 100
// of its integer part settles most values; the rest take one more
// digit, found from the remainder with a multiply by 6554. The writer
// spreads the digits over one 64-bit word, one byte each, and stores
// that word straight into the destination.

// cacheMin and cacheMax bound the powers of ten a float32 needs: the
// scale 10^k for k = κ - ⌊log₁₀ 2^e⌋ over the binary exponents e.
const (
	cacheMin = -31
	cacheMax = 46
)

// pow10Cache holds, for k in [cacheMin, cacheMax], 10^k scaled into
// [2^63, 2^64) and rounded up: ⌈10^k · 2^(63-⌊log₂10^k⌋)⌉, exact where
// that is an integer.
var pow10Cache = func() (tab [cacheMax - cacheMin + 1]uint64) {
	for k := cacheMin; k <= cacheMax; k++ {
		num, den := big.NewInt(1), big.NewInt(1)
		pow := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
		if k >= 0 {
			num.Set(pow)
		} else {
			den.Set(pow)
		}
		if shift := 63 - floorLog2Pow10(k); shift >= 0 {
			num.Lsh(num, uint(shift))
		} else {
			den.Lsh(den, uint(-shift))
		}
		q, r := num.QuoRem(num, den, new(big.Int))
		if r.Sign() != 0 {
			q.Add(q, big.NewInt(1))
		}
		tab[k-cacheMin] = q.Uint64()
	}
	return tab
}()

// floorLog2Pow10 is ⌊log₂ 10^e⌋ for |e| ≤ 1650.
func floorLog2Pow10(e int) int { return (e * 1741647) >> 19 }

// floorLog10Pow2 is ⌊log₁₀ 2^e⌋ for |e| ≤ 1700.
func floorLog10Pow2(e int) int { return (e * 315653) >> 20 }

// mulParity reports, for the scale 10^k held by cache and β = e +
// ⌊log₂10^k⌋, the parity of ⌊twoF · 2^(e-1) · 10^k⌋ and whether that
// product is an integer.
func mulParity(twoF uint32, cache uint64, beta int) (odd, exact bool) {
	r := uint64(twoF) * cache // the low 64 of 96 bits
	return r>>(64-beta)&1 != 0, uint32(r>>(32-beta)) == 0
}

// shortest returns the shortest decimal digits·10^exp10 that rounds to
// the positive, finite, nonzero float32 with bit pattern b, the one
// nearest the exact value when several are equally short (ties to even
// digits). digits has at most nine digits and no trailing zeros.
func shortest(b uint32) (digits uint32, exp10 int) {
	const (
		mantBits = 23
		kappa    = 1
	)
	mant, biased := b&(1<<mantBits-1), int(b>>mantBits)
	twoFc, e := mant<<1, 1-127-mantBits
	if biased != 0 {
		e = biased - 127 - mantBits
		if mant == 0 {
			return shorterInterval(e)
		}
		twoFc |= 1 << (mantBits + 1)
	}
	// Round half to even: an even significand's interval includes its
	// ends.
	closed := mant&1 == 0
	minusK := floorLog10Pow2(e) - kappa
	cache := pow10Cache[-minusK-cacheMin]
	beta := e + floorLog2Pow10(-minusK)

	// z is the interval's upper end scaled by 10^-minusK, delta its
	// width; 10 ≤ delta < 100.
	hi, lo := bits.Mul64(cache, uint64((twoFc|1)<<beta))
	z, zExact := uint32(hi), uint32(lo>>32) == 0
	delta := uint32(cache >> (63 - beta))

	// The largest multiple of 100 not above z is in the interval when
	// the remainder is below its width.
	digits = z / 100
	r := z - 100*digits
	inside := r < delta
	switch {
	case inside && r == 0 && zExact && !closed:
		// z itself is the excluded upper end: step down a multiple of 100.
		digits--
		r = 100
		inside = false
	case r == delta:
		// The multiple sits at the lower end: inside unless the end is
		// below it, or is it and is excluded.
		xOdd, xExact := mulParity(twoFc-1, cache, beta)
		inside = xOdd || xExact && closed
	}
	if inside {
		return stripZeros(digits, minusK+kappa+1)
	}

	// One digit more: the multiple of 10 nearest the centre y.
	// dist ≤ 100, where n·6554 >> 16 is n/10 and its low 16 bits fall
	// below 6554 exactly when 10 divides n.
	dist := r - delta/2 + 5
	approxYOdd := (dist^5)&1 != 0
	dist *= 6554
	divisible := dist&0xffff < 6554
	digits = 10*digits + dist>>16
	if divisible {
		// The estimate may be one too high: the parity of ⌊y⌋ tells,
		// and an integer y is a tie, broken to the even digits.
		yOdd, yExact := mulParity(twoFc, cache, beta)
		if yOdd != approxYOdd || yExact && digits&1 != 0 {
			digits--
		}
	}
	return digits, minusK + kappa
}

// shorterInterval is shortest for the power of two 2^23 · 2^e, whose
// lower neighbour is half as far as its upper one.
func shorterInterval(e int) (uint32, int) {
	minusK := (e*631305 - 261663) >> 21 // ⌊log₁₀ (3/4)·2^e⌋
	cache := pow10Cache[-minusK-cacheMin]
	beta := e + floorLog2Pow10(-minusK)
	xi := uint32((cache - cache>>25) >> (40 - beta))
	zi := uint32((cache + cache>>24) >> (40 - beta))
	// The lower end is an integer only for e in [2, 3]; the interval
	// (an even significand) includes it then.
	if e < 2 || e > 3 {
		xi++
	}
	if digits := zi / 10; digits*10 >= xi {
		return stripZeros(digits, minusK+1)
	}
	// y rounded up; at e = -35, y lies halfway between two integers.
	digits := (uint32(cache>>(39-beta)) + 1) / 2
	if e == -35 && digits&1 != 0 {
		digits--
	} else if digits < xi {
		digits++
	}
	return digits, minusK
}

// stripZeros moves d's trailing zeros into the exponent e.
func stripZeros(d uint32, e int) (uint32, int) {
	for d%100 == 0 {
		d /= 100
		e += 2
	}
	if d%10 == 0 {
		d /= 10
		e++
	}
	return d, e
}

// spread lays d < 10^8 out as eight decimal digits, one per byte with
// values 0–9, the most significant in the lowest byte: two 4-digit
// lanes, each split into two 2-digit lanes, each split into two digits,
// all in one word.
func spread(d uint32) uint64 {
	x := uint64(d/10000) | uint64(d%10000)<<32
	q := x * 10486 >> 20 & 0x0000007f_0000007f // v/100 for v < 10^4
	x = q | (x-q*100)<<16
	q = x * 103 >> 10 & 0x000f000f_000f000f // v/10 for v < 100
	return q | (x-q*10)<<8
}

const asciiZeros = 0x30303030_30303030 // "00000000"

// text is a float32's shortest decimal as ASCII digits.
type text struct {
	word  uint64 // the last min(n, 8) digits, the earliest in the lowest byte, zero bytes above
	lead  byte   // the first of nine digits; 0 for fewer
	n     int    // number of digits, 1 to 9
	exp10 int    // the value is the digits · 10^exp10
}

// newText is the shortest decimal of the positive, finite, nonzero
// float32 with bit pattern b.
func newText(b uint32) text {
	d, e := shortest(b)
	if d >= 1e8 {
		q := d / 1e8
		return text{word: spread(d-q*1e8) + asciiZeros, lead: byte('0' + q), n: 9, exp10: e}
	}
	w := spread(d)
	lz := bits.TrailingZeros64(w) &^ 7 // 8 × the leading zero digits
	return text{word: (w + asciiZeros) >> lz, n: 8 - lz/8, exp10: e}
}

// sci is the exponent of the value's leading digit.
func (t *text) sci() int { return t.n + t.exp10 - 1 }

// The put methods write at buf's start and return the length written.
// Their 8-byte stores may write zero bytes past that length, so buf
// holds floatRoom bytes.

// put writes the digits.
func (t *text) put(buf []byte) int {
	if t.lead != 0 {
		buf[0] = t.lead
		binary.LittleEndian.PutUint64(buf[1:], t.word)
		return 9
	}
	binary.LittleEndian.PutUint64(buf, t.word)
	return t.n
}

// putPoint writes the digits with a point after the first dp of them,
// 0 < dp < n: the word again, shifted past those dp digits, one byte
// on.
func (t *text) putPoint(buf []byte, dp int) int {
	t.put(buf)
	tail := dp
	if t.lead != 0 {
		tail-- // the word starts at the second digit
	}
	binary.LittleEndian.PutUint64(buf[dp+1:], t.word>>(8*tail))
	buf[dp] = '.'
	return t.n + 1
}

// putFixed writes the digits positionally: 0.000ddd, ddd.ddd or
// ddd000. No layout puts more than five zeros after the point.
func (t *text) putFixed(buf []byte) int {
	switch dp := t.n + t.exp10; {
	case dp <= 0:
		binary.LittleEndian.PutUint64(buf, 0x30303030_30302e30) // "0.000000"
		return 2 - dp + t.put(buf[2-dp:])
	case dp >= t.n:
		t.put(buf)
		for i := t.n; i < dp; i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], asciiZeros)
		}
		return dp
	default:
		return t.putPoint(buf, dp)
	}
}

// putExp writes d.ddde±XX; padExp pads a one-digit exponent to two.
func (t *text) putExp(buf []byte, padExp bool) int {
	i := 1
	if t.n > 1 {
		i = t.putPoint(buf, 1)
	} else {
		buf[0] = byte(t.word)
	}
	x, sign := t.sci(), byte('+')
	if x < 0 {
		x, sign = -x, '-'
	}
	buf[i], buf[i+1] = 'e', sign
	if x < 10 && !padExp {
		buf[i+2] = byte('0' + x)
		return i + 3
	}
	buf[i+2], buf[i+3] = byte('0'+x/10), byte('0'+x%10)
	return i + 4
}

// floatRoom bounds one rendering with the slack of its last 8-byte
// store: a sign and 21 integer digits, the last zeros stored a word at
// a time, in the JSON layout.
const floatRoom = 32

// AppendFloat32 appends the shortest decimal that parses back to v at
// float32 precision, exactly as strconv.AppendFloat(dst, float64(v),
// 'g', -1, 32) does: positional from 1e-4 up to 1e6, e±XX outside.
func AppendFloat32(dst []byte, v float32) []byte { return appendFloat32(dst, v, false) }

// AppendJSONFloat32 appends v as encoding/json writes a float32 field:
// the same shortest digits, positional from 1e-6 up to 1e21, e±X with
// an unpadded exponent outside.
func AppendJSONFloat32(dst []byte, v float32) []byte { return appendFloat32(dst, v, true) }

func appendFloat32(dst []byte, v float32, json bool) []byte {
	b := math.Float32bits(v)
	if b&0x7f800000 == 0x7f800000 {
		format := byte('g')
		if json {
			format = 'f'
		}
		return strconv.AppendFloat(dst, float64(v), format, -1, 32)
	}
	dst = slices.Grow(dst, floatRoom)
	buf, i := dst[len(dst):len(dst)+floatRoom], 0
	if b>>31 != 0 {
		buf[0], i = '-', 1
	}
	if b &= 1<<31 - 1; b == 0 {
		buf[i] = '0'
		return dst[:len(dst)+i+1]
	}
	t := newText(b)
	var exp bool
	if json {
		a := math.Float32frombits(b)
		exp = a < 1e-6 || a >= 1e21
	} else {
		x := t.sci()
		exp = x < -4 || x >= 6
	}
	if exp {
		i += t.putExp(buf[i:], !json)
	} else {
		i += t.putFixed(buf[i:])
	}
	return dst[:len(dst)+i]
}
