package table

import (
	"math"
	"math/big"
	"math/bits"
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
// The digits come from the Schubfach method (R. Giulietti, "The
// Schubfach way to render doubles", 2020) at float32 width: the
// rounding interval's bounds and centre are scaled by a 64-bit power of
// ten with one round-to-odd 64×32-bit multiply each, which is exact
// enough to decide which of at most two candidate decimals lies inside.

// pow10Min and pow10Max bound the powers of ten a float32 needs: the
// decimal exponent k of 2^q runs over [-45, 31], and the scale is 10^-k.
const (
	pow10Min = -31
	pow10Max = 45
)

// pow10Table holds, for e in [pow10Min, pow10Max], 10^e scaled into
// [2^63, 2^64) and rounded up: ⌊10^e · 2^(63-⌊log₂10^e⌋)⌋ + 1.
var pow10Table = func() (tab [pow10Max - pow10Min + 1]uint64) {
	one := big.NewInt(1)
	for e := pow10Min; e <= pow10Max; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		shift := 63 - floorLog2Pow10(e)
		var g *big.Int
		switch {
		case e < 0:
			g = new(big.Int).Quo(new(big.Int).Lsh(one, uint(shift)), p)
		case shift >= 0:
			g = p.Lsh(p, uint(shift))
		default:
			g = p.Rsh(p, uint(-shift))
		}
		tab[e-pow10Min] = g.Add(g, one).Uint64()
	}
	return tab
}()

// floorLog2Pow10 is ⌊log₂ 10^e⌋ for |e| ≤ 1650.
func floorLog2Pow10(e int) int { return (e * 1741647) >> 19 }

// roundToOdd is ⌊g·cp / 2^64⌋ with its low bit set when the dropped
// part is inexact. g overestimates its power of ten by less than one
// unit, so the dropped bits' top word is at most 1 on an exact product.
func roundToOdd(g uint64, cp uint32) uint32 {
	hi, lo := bits.Mul64(g, uint64(cp))
	y1, y0 := uint32(hi), uint32(lo>>32)
	if y0 > 1 {
		y1 |= 1
	}
	return y1
}

// shortest32 returns the shortest decimal digits·10^exp10 that rounds
// to the positive, finite, nonzero float32 with bit pattern b, the one
// nearest the exact value when several are equally short (ties to even
// digits). digits has no trailing zeros.
func shortest32(b uint32) (digits uint32, exp10 int) {
	const (
		mantBits = 23
		bias     = 127 + mantBits
	)
	mant, biased := b&(1<<mantBits-1), int(b>>mantBits)
	c, q := mant, 1-bias
	if biased != 0 {
		c, q = mant|1<<mantBits, biased-bias
		// A whole number below 2^24 is its own shortest decimal.
		if q <= 0 && q > -mantBits-1 && c&(1<<-q-1) == 0 {
			return stripZeros(c>>-q, 0)
		}
	}
	lowerCloser := mant == 0 && biased > 1
	cbl := 4*c - 2
	if lowerCloser {
		cbl++
	}
	// k = ⌊log₁₀ 2^q⌋, or ⌊log₁₀ (3/4)·2^q⌋ when the interval is lopsided.
	kq := q * 1262611
	if lowerCloser {
		kq -= 524031
	}
	k := kq >> 22
	h := q + floorLog2Pow10(-k) + 1
	g := pow10Table[-k-pow10Min]
	vbl := roundToOdd(g, cbl<<h)
	vb := roundToOdd(g, 4*c<<h)
	vbr := roundToOdd(g, (4*c+2)<<h)
	// Round-half-even: an even significand's interval includes its ends.
	lower, upper := vbl, vbr
	if c&1 != 0 {
		lower, upper = vbl+1, vbr-1
	}

	s := vb / 4
	if s >= 10 {
		// At most one multiple of 10^(k+1) fits in the interval.
		sp := vb / 40
		upIn, wpIn := lower <= 40*sp, 40*sp+40 <= upper
		if upIn != wpIn {
			if wpIn {
				sp++
			}
			return stripZeros(sp, k+1)
		}
	}
	uIn, wIn := lower <= 4*s, 4*s+4 <= upper
	if uIn != wIn {
		if wIn {
			s++
		}
		return stripZeros(s, k)
	}
	// Both neighbours fit: take the nearer, the even one on a tie.
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return stripZeros(s, k)
}

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

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// decimal is a float32's shortest digits as text, with its exponent.
type decimal struct {
	buf   [10]byte
	n     int // digits in buf[:n]; a float32 needs at most 9
	exp10 int // value = buf[:n] · 10^exp10
}

// sci is the exponent of the value's leading digit.
func (d *decimal) sci() int { return d.n + d.exp10 - 1 }

// set makes d the shortest decimal of the positive, finite, nonzero
// float32 with bit pattern b.
func (d *decimal) set(b uint32) {
	v, e := shortest32(b)
	d.exp10 = e
	d.n = decimalLen(v)
	i := d.n
	for v >= 100 {
		r := v % 100
		v /= 100
		i -= 2
		d.buf[i], d.buf[i+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if v >= 10 {
		d.buf[0], d.buf[1] = digitPairs[2*v], digitPairs[2*v+1]
	} else {
		d.buf[0] = byte('0' + v)
	}
}

func decimalLen(v uint32) int {
	n := 1
	for ; v >= 10000; v /= 10000 {
		n += 4
	}
	switch {
	case v >= 1000:
		return n + 3
	case v >= 100:
		return n + 2
	case v >= 10:
		return n + 1
	}
	return n
}

// appendFixed writes the digits positionally: 0.000ddd, ddd.ddd or
// ddd000.
func (d *decimal) appendFixed(dst []byte) []byte {
	digs := d.buf[:d.n]
	switch dp := d.n + d.exp10; {
	case dp <= 0:
		dst = append(dst, '0', '.')
		for ; dp < 0; dp++ {
			dst = append(dst, '0')
		}
		return append(dst, digs...)
	case dp >= d.n:
		dst = append(dst, digs...)
		for ; dp > d.n; dp-- {
			dst = append(dst, '0')
		}
		return dst
	default:
		dst = append(dst, digs[:dp]...)
		dst = append(dst, '.')
		return append(dst, digs[dp:]...)
	}
}

// appendExp writes d.ddde±XX; padExp pads a one-digit exponent to two.
func (d *decimal) appendExp(dst []byte, padExp bool) []byte {
	dst = append(dst, d.buf[0])
	if d.n > 1 {
		dst = append(dst, '.')
		dst = append(dst, d.buf[1:d.n]...)
	}
	x, sign := d.sci(), byte('+')
	if x < 0 {
		x, sign = -x, '-'
	}
	dst = append(dst, 'e', sign)
	if x < 10 {
		if padExp {
			dst = append(dst, '0')
		}
		return append(dst, byte('0'+x))
	}
	return append(dst, digitPairs[2*x], digitPairs[2*x+1])
}

// AppendFloat32 appends the shortest decimal that parses back to v at
// float32 precision, exactly as strconv.AppendFloat(dst, float64(v),
// 'g', -1, 32) does: positional from 1e-4 up to 1e6, e±XX outside.
func AppendFloat32(dst []byte, v float32) []byte {
	b := math.Float32bits(v)
	if b&(1<<31-1) == 0 || b&0x7f800000 == 0x7f800000 {
		return strconv.AppendFloat(dst, float64(v), 'g', -1, 32)
	}
	if b>>31 != 0 {
		dst = append(dst, '-')
	}
	var d decimal
	d.set(b &^ (1 << 31))
	if x := d.sci(); x < -4 || x >= 6 {
		return d.appendExp(dst, true)
	}
	return d.appendFixed(dst)
}

// AppendJSONFloat32 appends v as encoding/json writes a float32 field:
// the same shortest digits, positional from 1e-6 up to 1e21, e±X with
// an unpadded exponent outside.
func AppendJSONFloat32(dst []byte, v float32) []byte {
	b := math.Float32bits(v)
	if b&(1<<31-1) == 0 || b&0x7f800000 == 0x7f800000 {
		return strconv.AppendFloat(dst, float64(v), 'f', -1, 32)
	}
	if b>>31 != 0 {
		dst = append(dst, '-')
	}
	var d decimal
	d.set(b &^ (1 << 31))
	if a := math.Float32frombits(b &^ (1 << 31)); a < 1e-6 || a >= 1e21 {
		return d.appendExp(dst, false)
	}
	return d.appendFixed(dst)
}
