package jsonfloat

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"runtime/debug"
	"strconv"
	"testing"
)

// reference appends a finite f exactly as encoding/json writes a float64,
// through strconv: the shortest form that round-trips, 'f' unless the
// magnitude is below 1e-6 or at least 1e21, and then with the exponent
// unpadded (1e-07 → 1e-7).
func reference(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2], b = b[n-1], b[:n-1]
	}
	return b
}

// check holds Append to the reference for f and -f, appending behind a
// prefix it must leave alone; a non-finite f appends nothing.
func check(t testing.TB, f float64) {
	for _, v := range [2]float64{f, -f} {
		var got, want [48]byte
		out, finite := Append(append(got[:0], 'x'), v)
		if inf := math.IsInf(v, 0) || math.IsNaN(v); finite == inf {
			t.Fatalf("Append(%v): finite %v", v, finite)
		}
		ref := []byte("x")
		if finite {
			ref = reference(append(want[:0], 'x'), v)
		}
		if !bytes.Equal(out, ref) {
			t.Fatalf("Append(%v) (bits %#016x) = %q, want %q", v, math.Float64bits(v), out[1:], ref[1:])
		}
	}
}

// checkAround checks f and its two neighbours.
func checkAround(t testing.TB, f float64) {
	check(t, math.Nextafter(f, math.Inf(-1)))
	check(t, f)
	check(t, math.Nextafter(f, math.Inf(1)))
}

// corners are the inputs where a digit algorithm goes wrong if it does:
// powers of two (asymmetric rounding intervals) across the plain layout,
// powers of ten (exact decimals, shortest forms), the layout's edges, the
// end of exact integers, zero, subnormals and the extremes.
func corners() []float64 {
	fs := []float64{0, 5e-324, math.SmallestNonzeroFloat64 * 12345, math.Float64frombits(1<<52 - 1),
		math.MaxFloat64, 1e-6, 1e21, 0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3, 123456789, 1e23, 9007199254740993}
	for e := -21; e <= 70; e++ {
		fs = append(fs, math.Ldexp(1, e))
	}
	for e := -7; e <= 22; e++ {
		fs = append(fs, math.Pow10(e))
	}
	for i := -16; i <= 16; i++ {
		fs = append(fs, 1<<53+float64(i))
	}
	return fs
}

// TestAppendMatchesStrconv holds Append to strconv byte for byte on the
// corners, every power of two and their neighbours, the integers to 10^5,
// random bit patterns over the whole double range and inside the plain
// layout, and unit-square coordinates.
func TestAppendMatchesStrconv(t *testing.T) {
	for _, f := range corners() {
		checkAround(t, f)
	}
	for e := -1074; e <= 1023; e++ {
		checkAround(t, math.Ldexp(1, e))
	}
	for _, f := range []float64{math.Inf(1), math.NaN()} {
		check(t, f)
	}
	for i := 0; i <= 100000; i++ {
		check(t, float64(i))
	}
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Float64bits(1e-6)>>52, math.Float64bits(1e21)>>52
	for i := 0; i < 300000; i++ {
		check(t, math.Float64frombits(rng.Uint64()))
		check(t, math.Float64frombits((lo+uint64(rng.Int63n(int64(hi-lo+1))))<<52|rng.Uint64()>>12))
		check(t, rng.Float64())
	}
}

// TestTable: over the plain layout's exponents both estimates of k are
// exact and inside the table, h is in [2, 5], and every entry g has
// 2^125 ≤ g < 2^126.
func TestTable(t *testing.T) {
	qMin := int(math.Float64bits(1e-6)>>52) - 1075
	qMax := int(math.Float64bits(math.Nextafter(1e21, 0))>>52) - 1075
	if qMin != -72 || qMax != 17 {
		t.Fatalf("plain layout's q in [%d, %d], want [-72, 17]", qMin, qMax)
	}
	for q := qMin; q <= qMax; q++ {
		k, ka := q*78913>>18, (q*661971961083-274743187321)>>41
		if want := floorLog(pow(2, q), 10); k != want {
			t.Errorf("q %d: k %d, want %d", q, k, want)
		}
		if want := floorLog(new(big.Rat).Mul(big.NewRat(3, 4), pow(2, q)), 10); ka != want {
			t.Errorf("q %d: asymmetric k %d, want %d", q, ka, want)
		}
		for _, k := range []int{k, ka} {
			if k < kMin || k > kMax {
				t.Errorf("q %d: k %d outside [%d, %d]", q, k, kMin, kMax)
			}
			if h, want := q+(-k*108853>>15)+2, q+floorLog(pow(10, -k), 2)+2; h != want || h < 2 || h > 5 {
				t.Errorf("q %d, k %d: h %d, want %d in [2, 5]", q, k, h, want)
			}
		}
	}
	lo, hi := new(big.Int).Lsh(big.NewInt(1), 125), new(big.Int).Lsh(big.NewInt(1), 126)
	for i, g := range pow10 {
		v := new(big.Int).Lsh(new(big.Int).SetUint64(g.hi), 63)
		v.Add(v, new(big.Int).SetUint64(g.lo))
		if g.hi > mask63 || g.lo > mask63 || v.Cmp(lo) < 0 || v.Cmp(hi) >= 0 {
			t.Errorf("k %d: g = %v outside [2^125, 2^126) or halves over 63 bits", i+kMin, v)
		}
	}
}

// pow returns b^e exactly.
func pow(b int64, e int) *big.Rat {
	n := new(big.Int).Exp(big.NewInt(b), big.NewInt(int64(max(e, -e))), nil)
	r := new(big.Rat).SetInt(n)
	if e < 0 {
		r.Inv(r)
	}
	return r
}

// floorLog returns ⌊log_b x⌋ for x > 0.
func floorLog(x *big.Rat, b int64) int {
	k := 0
	for pow(b, k).Cmp(x) > 0 {
		k--
	}
	for pow(b, k+1).Cmp(x) <= 0 {
		k++
	}
	return k
}

// TestAppendAllocs: with room in dst, Append allocates nothing, on either
// branch.
func TestAppendAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates")
			}
		}
	}
	dst := make([]byte, 0, 64)
	for _, f := range []float64{0.123456789012345, -73.98, 1e-7, 1e300, 0, math.Inf(1)} {
		if n := testing.AllocsPerRun(100, func() { dst, _ = Append(dst[:0], f) }); n != 0 {
			t.Errorf("Append(%v): %.0f allocs, want 0", f, n)
		}
	}
}

// FuzzAppend holds Append to strconv on any bit pattern.
func FuzzAppend(f *testing.F) {
	for _, v := range corners() {
		f.Add(math.Float64bits(v))
	}
	f.Add(math.Float64bits(math.Inf(1)))
	f.Add(math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkAround(t, math.Float64frombits(bits))
	})
}

// BenchmarkAppend formats a 512-point answer's 1 024 unit-square
// coordinates per op, through the kernel and through the strconv reference,
// and reports ns per coordinate.
func BenchmarkAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	coords := make([]float64, 1024)
	for i := range coords {
		coords[i] = rng.Float64()
	}
	for _, bm := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"jsonfloat", func(b []byte, f float64) []byte { b, _ = Append(b, f); return b }},
		{"strconv", reference},
	} {
		b.Run(bm.name, func(b *testing.B) {
			buf := make([]byte, 0, 32*len(coords))
			for b.Loop() {
				buf = buf[:0]
				for _, f := range coords {
					buf = bm.fn(buf, f)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(coords)), "ns/coord")
		})
	}
}
