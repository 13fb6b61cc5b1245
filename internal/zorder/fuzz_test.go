package zorder

import "testing"

// FuzzZOrderKernel differentially tests the table-driven Encode/Decode/BigMin
// kernel against the shift-cascade references: same keys from
// arbitrary coordinates, same coordinates from arbitrary keys, and same
// BIGMIN jumps over rectangles formed from arbitrary corner pairs.
func FuzzZOrderKernel(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), uint64(0))
	f.Add(uint32(1), uint32(2), uint32(3), uint32(4), uint64(5))
	f.Add(uint32(1<<31), uint32(1<<31-1), uint32(^uint32(0)), uint32(0), uint64(1)<<63)
	f.Add(uint32(0xDEADBEEF), uint32(0xCAFEBABE), uint32(0x12345678), uint32(0x9ABCDEF0), ^uint64(0))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by uint32, cur uint64) {
		for _, p := range [][2]uint32{{ax, ay}, {bx, by}} {
			if got, want := Encode(p[0], p[1]), EncodeRef(p[0], p[1]); got != want {
				t.Fatalf("Encode(%d, %d) = %#x, reference %#x", p[0], p[1], got, want)
			}
		}
		for _, k := range []Key{Key(cur), Encode(ax, ay)} {
			gx, gy := Decode(k)
			wx, wy := DecodeRef(k)
			if gx != wx || gy != wy {
				t.Fatalf("Decode(%#x) = (%d, %d), reference (%d, %d)", k, gx, gy, wx, wy)
			}
			if rt := Encode(gx, gy); rt != k {
				t.Fatalf("Encode(Decode(%#x)) = %#x, not the identity", k, rt)
			}
		}
		// Rectangle from the two corners, normalized per dimension so the
		// BigMin precondition (zmin encodes the bottom-left, zmax the
		// top-right) holds.
		minX, maxX := ax, bx
		if minX > maxX {
			minX, maxX = maxX, minX
		}
		minY, maxY := ay, by
		if minY > maxY {
			minY, maxY = maxY, minY
		}
		zmin, zmax := Encode(minX, minY), Encode(maxX, maxY)
		got, gok := BigMin(Key(cur), zmin, zmax)
		want, wok := BigMinRef(Key(cur), zmin, zmax)
		if got != want || gok != wok {
			t.Fatalf("BigMin(%#x, %#x, %#x) = (%#x, %v), reference (%#x, %v)",
				cur, zmin, zmax, got, gok, want, wok)
		}
		if gok {
			if got <= Key(cur) {
				t.Fatalf("BigMin(%#x, ...) = %#x, not strictly greater", cur, got)
			}
			if !InRect(got, minX, minY, maxX, maxY) {
				t.Fatalf("BigMin(%#x, %#x, %#x) = %#x decodes outside the rectangle", cur, zmin, zmax, got)
			}
		}
	})
}

// TestDecodeEncodeBoundaries pins the round-trip property at the dimension
// boundary values on both the live kernel and the reference.
func TestDecodeEncodeBoundaries(t *testing.T) {
	vals := []uint32{0, 1, 1 << 31, ^uint32(0)}
	for _, x := range vals {
		for _, y := range vals {
			k := Encode(x, y)
			if k != EncodeRef(x, y) {
				t.Fatalf("Encode(%d, %d) = %#x, reference %#x", x, y, k, EncodeRef(x, y))
			}
			gx, gy := Decode(k)
			if gx != x || gy != y {
				t.Fatalf("Decode(Encode(%d, %d)) = (%d, %d)", x, y, gx, gy)
			}
			rx, ry := DecodeRef(k)
			if rx != x || ry != y {
				t.Fatalf("DecodeRef(Encode(%d, %d)) = (%d, %d)", x, y, rx, ry)
			}
		}
	}
}
