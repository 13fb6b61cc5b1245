package geom

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// appendInsideRef is the branchy filter AppendInside replaced, kept as the
// reference the fuzzer compares the kernel against.
func appendInsideRef(dst, pts []Point, r Rect) []Point {
	for _, p := range pts {
		if r.Contains(p) {
			dst = append(dst, p)
		}
	}
	return dst
}

// fuzzSpecials are the coordinates a filter is most likely to get wrong:
// NaN, the infinities, both zeros, the extremes of the float range, and a
// coarse grid so points land on rectangle edges.
var fuzzSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	-1, 0.25, 0.5, 0.75, 1, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0), 2,
}

// fuzzFloats decodes data into coordinates: a byte below 0x80 picks one of
// fuzzSpecials, any other byte takes the next eight bytes as raw float64
// bits (every NaN payload and subnormal included).
func fuzzFloats(data []byte) []float64 {
	var out []float64
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		if b < 0x80 || len(data) < 8 {
			out = append(out, fuzzSpecials[int(b)%len(fuzzSpecials)])
			continue
		}
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return out
}

// samePointBits compares point slices bit for bit, so −0 and +0 differ and
// NaN payloads compare equal to themselves.
func samePointBits(a, b []Point) bool {
	return slices.EqualFunc(a, b, func(p, q Point) bool {
		return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
	})
}

// FuzzInsideKernel holds AppendInside and CountInside to the branchy
// Contains loop on arbitrary coordinates and rectangles, degenerate and
// inverted ones included: same points, same order, same bits, the prefix of
// dst untouched, and the count equal to the appended length.
func FuzzInsideKernel(f *testing.F) {
	f.Add(uint8(0), []byte{3, 3, 12, 12, 11, 11, 3, 12, 4, 4, 0, 11, 1, 2, 13, 14})
	f.Add(uint8(2), []byte{4, 4, 4, 4, 3, 4, 4, 3, 0, 0, 4, 4})       // degenerate ±0 rect
	f.Add(uint8(1), []byte{12, 12, 3, 3, 10, 10, 11, 11})             // inverted rect
	f.Add(uint8(3), []byte{2, 2, 1, 1, 5, 6, 7, 8, 1, 2, 2, 1, 0, 0}) // infinite rect
	f.Add(uint8(5), append([]byte{0xff, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 9, 12, 12, 10}, make([]byte, 24)...))
	f.Fuzz(func(t *testing.T, prefix uint8, data []byte) {
		v := fuzzFloats(data)
		if len(v) < 4 {
			return
		}
		r := Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}
		pts := make([]Point, 0, (len(v)-4)/2)
		for i := 4; i+1 < len(v); i += 2 {
			pts = append(pts, Point{X: v[i], Y: v[i+1]})
		}
		// dst's prefix reuses pts (or a zero point) and gets spare capacity
		// on odd prefix lengths, so both the growing and the in-place paths
		// run.
		var dst []Point
		for i := 0; i < int(prefix%8); i++ {
			p := Point{}
			if len(pts) > 0 {
				p = pts[i%len(pts)]
			}
			dst = append(dst, p)
		}
		if prefix%2 == 1 {
			dst = slices.Grow(dst, len(pts))
		}
		head := slices.Clone(dst)

		want := appendInsideRef(slices.Clone(dst), pts, r)
		got := AppendInside(dst, pts, r)
		if !samePointBits(got, want) {
			t.Fatalf("AppendInside(%v) over %v = %v, reference %v", r, pts, got, want)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("AppendInside nil-ness %v, reference %v", got == nil, want == nil)
		}
		if !samePointBits(got[:len(head)], head) {
			t.Fatalf("AppendInside changed the prefix: %v, was %v", got[:len(head)], head)
		}
		if n := CountInside(pts, r); n != len(got)-len(head) {
			t.Fatalf("CountInside(%v) = %d, AppendInside appended %d", r, n, len(got)-len(head))
		}
	})
}

// FuzzSlab holds LowerX and UpperX to sort.Search on arbitrary bit patterns
// (ties, −0 and +0, ±Inf, NaN payloads) sorted under CmpXY, and checks that
// CmpXY is antisymmetric and that each search counts exactly the entries
// below or at x.
func FuzzSlab(f *testing.F) {
	f.Add([]byte{11, 3, 4, 3, 11, 12, 4, 0, 3, 12, 11, 0, 0, 1})      // ties, ±0
	f.Add([]byte{0, 0, 1, 2, 0, 11, 2, 1, 11, 0, 12, 12, 1, 2, 0, 1}) // NaN, ±Inf
	f.Add(append([]byte{0xff, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 9, 0xff, 0, 0, 0, 0, 0, 0, 0x80, 0}, 12, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		v := fuzzFloats(data)
		if len(v) == 0 {
			return
		}
		x, pts := v[0], make([]Point, 0, len(v)/2)
		for i := 1; i+1 < len(v); i += 2 {
			pts = append(pts, Point{X: v[i], Y: v[i+1]})
		}
		for i := range pts {
			for j := range pts {
				if a, b := CmpXY(pts[i], pts[j]), CmpXY(pts[j], pts[i]); a != -b {
					t.Fatalf("CmpXY(%v, %v) = %d but CmpXY(%v, %v) = %d", pts[i], pts[j], a, pts[j], pts[i], b)
				}
			}
		}
		slices.SortFunc(pts, CmpXY)
		below, atOrBelow := 0, 0
		for _, p := range pts {
			below += b2i(p.X < x)
			atOrBelow += b2i(p.X <= x)
		}
		lo := sort.Search(len(pts), func(i int) bool { return !(pts[i].X < x) })
		hi := sort.Search(len(pts), func(i int) bool { return !(pts[i].X <= x) })
		if got := LowerX(pts, x); got != lo || got != below {
			t.Fatalf("LowerX(%v, %v) = %d, sort.Search %d, count %d", pts, x, got, lo, below)
		}
		if got := UpperX(pts, x); got != hi || got != atOrBelow {
			t.Fatalf("UpperX(%v, %v) = %d, sort.Search %d, count %d", pts, x, got, hi, atOrBelow)
		}
	})
}

func TestNearestKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := Point{X: 0.5, Y: 0.5}
	var grid, near, same, circle []Point
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			grid = append(grid, Point{X: float64(i) / 8, Y: float64(j) / 8})
		}
	}
	x := q.X
	for i := 0; i < 20; i++ {
		near = append(near, Point{X: x, Y: q.Y}, Point{X: q.X, Y: x})
		x = math.Nextafter(x, 1)
	}
	for i := 0; i < 17; i++ {
		same = append(same, Point{X: 0.3, Y: 0.7})
	}
	for i := 0; i < 36; i++ {
		a := 2 * math.Pi * float64(i) / 36
		circle = append(circle, Point{X: q.X + 0.25*math.Cos(a), Y: q.Y + 0.25*math.Sin(a)})
	}
	for _, c := range []struct {
		name string
		in   []Point
	}{{"grid", grid}, {"nextafter", near}, {"identical", same}, {"circle", circle}} {
		n := len(c.in)
		for _, k := range []int{0, 1, 2, n - 1, n, n + 5} {
			pts := slices.Clone(c.in)
			rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			want := slices.Clone(pts)
			SortByDistance(want, q)
			NearestK(pts, k, q)
			m := min(k, n)
			if !samePointBits(pts[:m], want[:m]) {
				t.Fatalf("%s k=%d: NearestK prefix %v, SortByDistance %v", c.name, k, pts[:m], want[:m])
			}
			if !samePointBits(sortedByXY(pts), sortedByXY(c.in)) {
				t.Fatalf("%s k=%d: NearestK did not permute its input", c.name, k)
			}
		}
	}
}

// sortedByXY returns a copy of pts in (X, Y) order, a canonical form for
// comparing multisets.
func sortedByXY(pts []Point) []Point {
	out := slices.Clone(pts)
	slices.SortFunc(out, func(a, b Point) int {
		return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
	})
	return out
}
