// Package jsonfloat appends a float64 exactly as encoding/json writes one,
// without strconv on the common path. In encoding/json's plain layout,
// 1e-6 ≤ |f| < 1e21, the shortest decimal that round-trips — the closest
// one, the even one on a tie — comes from Schubfach (R. Giulietti, "The
// Schubfach way to render doubles", 2020): three 128-bit products against
// one power of ten, two digits per table lookup. Zero and the exponent
// layout, both rare in a coordinate, go to strconv.
package jsonfloat

import (
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
)

// Append appends f to dst as encoding/json writes a float64 — the shortest
// form that round-trips, plain unless the magnitude is below 1e-6 or at least
// 1e21, and then with the exponent unpadded (1e-07 → 1e-7) — and reports
// whether f is finite. A non-finite f, which JSON cannot carry, appends
// nothing.
func Append(dst []byte, f float64) (out []byte, finite bool) {
	u := math.Float64bits(f)
	be := u >> 52 & 0x7ff
	if be == 0x7ff {
		return dst, false
	}
	if a := math.Abs(f); a < 1e-6 || a >= 1e21 {
		format := byte('e')
		if a == 0 {
			format = 'f'
		}
		dst = strconv.AppendFloat(dst, f, format, -1, 64)
		if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2], dst = dst[n-1], dst[:n-1]
		}
		return dst, true
	}
	if u>>63 != 0 {
		dst = append(dst, '-')
	}
	d, e := shortest(be, u&(1<<52-1))
	return appendPlain(dst, d, e), true
}

// shortest returns the decimal d·10^e that encoding/json prints for the
// normal double with biased exponent be and mantissa field m: the shortest
// in its rounding interval, and of those the closest, the even one on a tie.
// Names follow the paper: the double is c·2^q, and the interval's ends and
// centre, scaled by 4·10^-k, are vbl, vbr and vb.
func shortest(be, m uint64) (d uint64, e int) {
	c, q := m|1<<52, int(be)-1075
	out := c & 1 // an odd c excludes the interval's ends
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k := q * 78913 >> 18 // ⌊q·log10 2⌋
	if m == 0 {          // c = 2^52: the gap below is half the gap above
		cbl = cb - 1
		k = (q*661971961083 - 274743187321) >> 41 // ⌊log10(¾·2^q)⌋
	}
	g := pow10[k-kMin]
	h := q + (-k * 108853 >> 15) + 2 // q + ⌊−k·log2 10⌋ + 2, in [2, 5]: cb<<h < 2^60
	vb, vbl, vbr := rop(g, cb<<h), rop(g, cbl<<h), rop(g, cbr<<h)

	// One digit shorter first: the interval is narrower than 10^(k+1), so at
	// most one multiple of it lies inside, and if one does it is shortest.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin, wpin := vbl+out <= sp10<<2, tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// Otherwise s·10^k ≤ v < (s+1)·10^k, and at least one of them is inside.
	t := s + 1
	uin, win := vbl+out <= s<<2, t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// g128 is one table entry g = hi·2^63 + lo, with hi and lo below 2^63.
type g128 struct{ hi, lo uint64 }

const mask63 = 1<<63 - 1

// rop is ⌊g·cp / 2^127⌋ rounded to odd: its low bit is set when any bit
// below the cut is.
func rop(g g128, cp uint64) uint64 {
	x1, _ := bits.Mul64(g.lo, cp)
	y1, y0 := bits.Mul64(g.hi, cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | ((z&mask63)+mask63)>>63
}

// kMin and kMax bound k over the plain layout: 1e-6 ≤ |f| < 1e21 puts q in
// [-72, 17].
const kMin, kMax = -22, 5

// pow10[k-kMin] is g = ⌊10^-k·2^-r⌋ + 1, with r chosen so that
// 2^125 ≤ g < 2^126.
var pow10 = func() (t [kMax - kMin + 1]g128) {
	for k := kMin; k <= kMax; k++ {
		r := (-k * 108853 >> 15) - 125
		num, den := big.NewInt(1), big.NewInt(1)
		if k < 0 {
			num.Exp(big.NewInt(10), big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		}
		if r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		g := num.Add(num.Quo(num, den), big.NewInt(1))
		t[k-kMin] = g128{hi: new(big.Int).Rsh(g, 63).Uint64(), lo: g.Uint64() & mask63}
	}
	return t
}()

const digits2 = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendPlain appends d·10^e without an exponent and without trailing
// zeros after a point: digits000, digits.digits or 0.000digits. shortest's d
// has 16 or 17 digits (2^52 − 9 ≤ d < 10^17), so the layout is known before
// a digit is written, and every byte goes straight into dst.
func appendPlain(dst []byte, d uint64, e int) []byte {
	n0 := len(dst)
	dst = slices.Grow(dst, 24) // 0.00000 and 17 digits
	b := dst[n0 : n0+24]
	nd := 16
	if d >= 1e16 {
		nd = 17
	}
	o, dp := 0, nd+e // digits start at o; the point goes after dp of them
	switch {
	case dp <= 0:
		*(*[8]byte)(b) = [8]byte{'0', '.', '0', '0', '0', '0', '0', '0'}
		o = 2 - dp
	case dp < nd:
		o = 1
	}
	putDigits(b[o:o+nd], d)
	n := o + nd
	switch {
	case dp >= nd: // an integer: its zeros are digits
		for ; n < dp; n++ {
			b[n] = '0'
		}
		return dst[:n0+n]
	case dp > 0:
		for i := 0; i < dp; i++ {
			b[i] = b[i+1]
		}
		b[dp] = '.'
	}
	for b[n-1] == '0' {
		n--
	}
	if b[n-1] == '.' {
		n--
	}
	return dst[:n0+n]
}

// putDigits writes d as exactly len(b) digits, 16 or 17: the low eight,
// the next eight and the top one are independent chains of divisions by
// constants, two digits per table lookup.
func putDigits(b []byte, d uint64) {
	hi := uint32(d / 1e8)
	put8(b[len(b)-8:], uint32(d%1e8))
	put8(b[len(b)-16:], hi%1e8)
	if len(b) == 17 {
		b[0] = byte('0' + hi/1e8)
	}
}

// put8 writes x < 10^8 as exactly eight digits.
func put8(b []byte, x uint32) {
	_ = b[7]
	hi, lo := x/10000, x%10000
	a, c := hi/100*2, lo/100*2
	bb, d := hi%100*2, lo%100*2
	b[0], b[1], b[2], b[3] = digits2[a], digits2[a+1], digits2[bb], digits2[bb+1]
	b[4], b[5], b[6], b[7] = digits2[c], digits2[c+1], digits2[d], digits2[d+1]
}
