package table_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sky"
	. "repro/internal/table"
)

// edgeFloats are the float32 values whose shortest decimal is easiest
// to get wrong: signed zeros, the denormal range, the extremes, and
// values on either side of the 'g' format's exponent cutoffs (the
// same list the row encoder's tests use).
var edgeFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, 1.1754942e-38,
	math.MaxFloat32, -math.MaxFloat32,
	1e-5, 9.9999e-5, 1e-4, 1e20, 1e21, 1.0000001e21, 16777216, 0.1, -17.25, 359.99997,
}

// refJSONFloat32 is encoding/json's rendering of a float32 field.
func refJSONFloat32(v float32) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// checkFloat32 compares both layouts of one finite value with the
// standard library, into a non-empty destination so an append that
// clobbers its prefix shows.
func checkFloat32(t testing.TB, v float32) {
	t.Helper()
	if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return
	}
	want := strconv.AppendFloat([]byte("x"), float64(v), 'g', -1, 32)
	if got := AppendFloat32([]byte("x"), v); !bytes.Equal(got, want) {
		t.Fatalf("AppendFloat32(%#08x) = %s, strconv %s", math.Float32bits(v), got, want)
	}
	want = append([]byte("x"), refJSONFloat32(v)...)
	if got := AppendJSONFloat32([]byte("x"), v); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSONFloat32(%#08x) = %s, encoding/json %s", math.Float32bits(v), got, want)
	}
}

// TestAppendFloat32MatchesStrconv checks both layouts on the edge
// values, every power of ten and of two a float32 reaches and their
// neighbours, each layout's exponent cut-offs, the whole of the octaves
// the magnitudes occupy, every seventh subnormal and a prime-stride
// sweep of the bit space.
func TestAppendFloat32MatchesStrconv(t *testing.T) {
	for _, v := range edgeFloats {
		checkFloat32(t, v)
		checkFloat32(t, -v)
	}
	neighbours := func(v float32) {
		checkFloat32(t, v)
		checkFloat32(t, math.Nextafter32(v, 0))
		checkFloat32(t, math.Nextafter32(v, math.MaxFloat32))
		checkFloat32(t, -v)
	}
	for e := -45; e <= 38; e++ {
		neighbours(float32(math.Pow10(e)))
	}
	// A power of two's interval is lopsided: its lower neighbour is
	// half as far as its upper one.
	for e := -149; e <= 127; e++ {
		neighbours(float32(math.Ldexp(1, e)))
	}
	// 'g' cuts at 1e-4 and 1e6, encoding/json at 1e-6 and 1e21; both
	// near the shortest-digit rounding that carries into a new decade.
	for _, v := range []float32{1e-4, 9.9999e-5, 1e6, 999999.94, 999999.9, 1e-6, 9.99999e-7, 1e21, 9.999999e20, 1e-7, 1e-5, 123456.7, 1234567} {
		neighbours(v)
	}
	// The octaves the magnitudes occupy, [8, 64), hold 2^23 patterns
	// each, with ~8 significant digits.
	var got, want []byte
	for b := math.Float32bits(8); b < math.Float32bits(64); b++ {
		v := math.Float32frombits(b)
		got = AppendFloat32(got[:0], v)
		if want = strconv.AppendFloat(want[:0], float64(v), 'g', -1, 32); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat32(%#08x) = %s, strconv %s", b, got, want)
		}
	}
	// Every seventh subnormal, in both layouts: the fewest significant
	// bits.
	for b := uint32(1); b < 1<<23; b += 7 {
		v := math.Float32frombits(b)
		got = AppendFloat32(got[:0], v)
		if want = strconv.AppendFloat(want[:0], float64(v), 'g', -1, 32); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat32(%#08x) = %s, strconv %s", b, got, want)
		}
		got = AppendJSONFloat32(got[:0], v)
		if want = appendRefJSON(want[:0], v); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONFloat32(%#08x) = %s, encoding/json %s", b, got, want)
		}
	}
	for b := uint64(0); b < 1<<32; b += 7919 * 13 {
		checkFloat32(t, math.Float32frombits(uint32(b)))
	}
}

// branchBits reach each branch of the digit generator, found by
// instrumenting it.
var branchBits = []uint32{
	0x4100000a, // 8.00001: a multiple of 100 inside, trailing zeros to strip
	0x410000b8, // 8.000175: the remainder equals the width, lower end inside
	0x4100004c, // 8.0000725: the remainder equals the width, lower end outside
	0x4c000009, // 33554468: the upper end exact, excluded (odd significand)
	0x4180001b, // 16.000051: one digit more, divisible, the centre's parity differs
	0x4180003b, // 16.000113: one digit more, divisible, the parity agrees
	0x41801000, // 16.007812: the centre an integer, a tie broken down to even
	0x41803000, // 16.023438: the centre an integer, a tie already even
	0x41000000, // 8: a power of two, a multiple of 10 inside the shorter interval
	0x00800000, // 1.1754944e-38: a power of two, the centre rounded up
	0x0f800000, // 1.2621775e-29: a power of two, rounded up below the lower end
	0x39800000, // 0.00024414062: a power of two at the shorter interval's tie exponent
}

// FuzzAppendFloat32 runs the same differential over fuzzed bits.
func FuzzAppendFloat32(f *testing.F) {
	for _, v := range edgeFloats {
		f.Add(math.Float32bits(v))
	}
	for _, b := range branchBits {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b uint32) {
		checkFloat32(t, math.Float32frombits(b))
	})
}

func TestAppendFloat32ZeroAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	vals := []float32{17.25, 359.99997, -89.5, 1e-40, math.MaxFloat32, 0}
	for _, v := range vals {
		if n := testing.AllocsPerRun(100, func() {
			buf = AppendFloat32(buf[:0], v)
			buf = AppendJSONFloat32(buf[:0], v)
		}); n != 0 {
			t.Errorf("appending %v allocates %v times", v, n)
		}
	}
}

// TestAppendFloat32Exhaustive compares both layouts with the standard
// library on every one of the 2³² bit patterns. It takes minutes, so it
// runs only with REPRO_EXHAUSTIVE=1:
//
//	REPRO_EXHAUSTIVE=1 go test -run TestAppendFloat32Exhaustive -timeout 30m ./internal/table/
func TestAppendFloat32Exhaustive(t *testing.T) {
	if os.Getenv("REPRO_EXHAUSTIVE") != "1" {
		t.Skip("set REPRO_EXHAUSTIVE=1 to sweep all 2^32 float32 bit patterns")
	}
	const chunk = 1 << 20
	var next, gMiss, jMiss atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got, want []byte
			for {
				lo := next.Add(chunk) - chunk
				if lo >= 1<<32 {
					return
				}
				for b := lo; b < lo+chunk; b++ {
					v := math.Float32frombits(uint32(b))
					if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
						continue
					}
					got = AppendFloat32(got[:0], v)
					want = strconv.AppendFloat(want[:0], float64(v), 'g', -1, 32)
					if !bytes.Equal(got, want) && gMiss.Add(1) <= 10 {
						t.Errorf("AppendFloat32(%#08x) = %s, strconv %s", b, got, want)
					}
					got = AppendJSONFloat32(got[:0], v)
					want = appendRefJSON(want[:0], v)
					if !bytes.Equal(got, want) && jMiss.Add(1) <= 10 {
						t.Errorf("AppendJSONFloat32(%#08x) = %s, encoding/json %s", b, got, want)
					}
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("2^32 patterns on %d workers: %d 'g' mismatches, %d JSON mismatches", runtime.GOMAXPROCS(0), gMiss.Load(), jMiss.Load())
}

// appendRefJSON is encoding/json's float32 rule written out with
// strconv, so the sweep does not pay for json.Marshal's allocations;
// TestAppendFloat32MatchesStrconv and the fuzz target check the
// formatter against json.Marshal itself.
func appendRefJSON(dst []byte, v float32) []byte {
	format := byte('f')
	if a := float32(math.Abs(float64(v))); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(v), format, -1, 32)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// BenchmarkAppendFloat32 is the formatter's own number over the served
// value mix: a generated catalog's magnitudes, ra, dec and redshift.
// ns/op is per value.
func BenchmarkAppendFloat32(b *testing.B) {
	recs, err := sky.Generate(sky.DefaultParams(1024, 42))
	if err != nil {
		b.Fatal(err)
	}
	var vals []float32
	for _, r := range recs {
		vals = append(vals, r.Mags[:]...)
		vals = append(vals, r.Ra, r.Dec, r.Redshift)
	}
	for _, bc := range []struct {
		name string
		fn   func([]byte, float32) []byte
	}{
		{"table", AppendFloat32},
		{"json", AppendJSONFloat32},
		{"strconv", func(dst []byte, v float32) []byte { return strconv.AppendFloat(dst, float64(v), 'g', -1, 32) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 32)
			b.ReportAllocs()
			for n := b.N; n > 0; n -= len(vals) {
				for _, v := range vals[:min(n, len(vals))] {
					buf = bc.fn(buf[:0], v)
				}
			}
		})
	}
}
