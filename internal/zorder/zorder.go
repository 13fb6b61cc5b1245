// Package zorder implements the classic Z-order (Morton) curve on a 2^32 ×
// 2^32 integer grid, together with the BIGMIN algorithm of Tropf and Herzog
// (1981) for skipping over curve sections that fall outside a query
// rectangle.
//
// The Z-order curve linearises two-dimensional grid coordinates by
// interleaving their bits. It is the substrate for the Base Z-index's
// classical relatives evaluated in Figure 4 of the paper (Zpgm, QUILTS) and
// for the rank-space mappings used by RSMI.
package zorder

import "math/bits"

// Key is a Z-order value: the bit-interleaving of two 32-bit grid
// coordinates, with y contributing the higher bit of each pair.
type Key uint64

// Encode and Decode are the table-driven byte-interleave kernel
// (zorder_lut.go). EncodeRef/DecodeRef below are the classic five-step
// shift cascade, the reference the differential fuzz target
// (FuzzZOrderKernel) and the boundary tests hold the kernel to.

// EncodeRef is the reference shift-cascade implementation of Encode. Bit i
// of x maps to bit 2i of the key and bit i of y maps to bit 2i+1, so the y
// coordinate is the more significant dimension within each bit pair,
// matching the "abcd" visit order (bottom-left, bottom-right, top-left,
// top-right).
func EncodeRef(x, y uint32) Key {
	return Key(spread(x) | spread(y)<<1)
}

// DecodeRef is the reference shift-cascade implementation of Decode, the
// inverse of Encode.
func DecodeRef(k Key) (x, y uint32) {
	return compact(uint64(k)), compact(uint64(k) >> 1)
}

// spread inserts a zero bit above every bit of v: abcd -> 0a0b0c0d.
func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact is the inverse of spread: it drops every other bit.
func compact(x uint64) uint32 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return uint32(x)
}

// InRect reports whether key k decodes to a grid point inside the rectangle
// [minX, maxX] × [minY, maxY] (inclusive on all sides).
func InRect(k Key, minX, minY, maxX, maxY uint32) bool {
	x, y := Decode(k)
	return x >= minX && x <= maxX && y >= minY && y <= maxY
}

// BigMin returns the smallest Z-order key strictly greater than cur that
// lies inside the query rectangle defined by the keys zmin = Encode(minX,
// minY) and zmax = Encode(maxX, maxY). The second return value is false when
// no such key exists (the scan past cur is exhausted).
//
// This is the BIGMIN routine of Tropf and Herzog: walking the bits of cur,
// zmin and zmax from most to least significant and maintaining candidate
// bounds. A linear scan between zmin and zmax can jump directly to BigMin
// whenever it encounters a key outside the rectangle, skipping the entire
// out-of-rectangle curve section.
func BigMin(cur, zmin, zmax Key) (Key, bool) {
	if cur >= zmax {
		return 0, false
	}
	lo, hi := uint64(zmin), uint64(zmax)
	c := uint64(cur)
	// Bits where cur, zmin, and zmax all agree contribute nothing (the
	// all-0 and all-1 switch cases are no-ops), so start the walk at the
	// first disagreeing bit. The walk itself only mutates bits at or below
	// the current position, so the skipped prefix stays in agreement.
	diff := (c ^ lo) | (c ^ hi)
	if diff == 0 {
		return 0, false // cur == zmin == zmax, excluded by the guard above
	}
	return bigMinFrom(c, lo, hi, 63-bits.LeadingZeros64(diff))
}

// BigMinRef is the reference implementation of BigMin: the same bit walk
// started unconditionally at the top bit. FuzzZOrderKernel holds BigMin to
// it.
func BigMinRef(cur, zmin, zmax Key) (Key, bool) {
	if cur >= zmax {
		return 0, false
	}
	return bigMinFrom(uint64(cur), uint64(zmin), uint64(zmax), 63)
}

func bigMinFrom(c, lo, hi uint64, start int) (Key, bool) {
	bigmin := Key(0)
	found := false
	for bit := start; bit >= 0; bit-- {
		mask := uint64(1) << uint(bit)
		cb := c & mask
		lb := lo & mask
		hb := hi & mask
		switch {
		case cb == 0 && lb == 0 && hb == 0:
			// All agree on 0: continue.
		case cb == 0 && lb == 0 && hb != 0:
			// The rectangle spans this bit. The candidate answer is the
			// lower bound with this bit forced to 1 and lower same-dimension
			// bits zeroed; continue searching in the half with the bit 0.
			bigmin = Key(loadOnes(lo, uint(bit)))
			found = true
			hi = loadZeros(hi, uint(bit))
		case cb == 0 && lb != 0 && hb == 0:
			// min > max in this dimension slice: impossible input.
			return 0, false
		case cb == 0 && lb != 0 && hb != 0:
			// cur is below the remaining search region in this bit: the
			// minimum in-range key greater than cur is the (possibly
			// raised) working lower bound.
			return Key(lo), lo > c
		case cb != 0 && lb == 0 && hb == 0:
			// cur is above the rectangle here: no key in range exceeds cur
			// along this branch; fall back to any saved candidate.
			return bigmin, found
		case cb != 0 && lb == 0 && hb != 0:
			// Restrict to the upper half: raise the lower bound.
			lo = loadOnes(lo, uint(bit))
		case cb != 0 && lb != 0 && hb == 0:
			return 0, false
		case cb != 0 && lb != 0 && hb != 0:
			// All agree on 1: continue.
		}
	}
	return bigmin, found
}

// loadOnes returns v with bit set to 1 and all lower bits of the same
// dimension (every second bit below it) cleared — i.e. the minimum value of
// that dimension's suffix once the current bit is forced to 1.
func loadOnes(v uint64, bit uint) uint64 {
	mask := uint64(1) << bit
	dimMask := sameDimMaskBelow(bit)
	return (v &^ dimMask &^ mask) | mask
}

// loadZeros returns v with bit cleared and all lower bits of the same
// dimension set — the maximum value of that dimension's suffix once the
// current bit is forced to 0.
func loadZeros(v uint64, bit uint) uint64 {
	mask := uint64(1) << bit
	dimMask := sameDimMaskBelow(bit)
	return (v &^ mask) | dimMask
}

// sameDimMaskBelow returns a mask of the bits strictly below bit that belong
// to the same interleaved dimension (same bit parity).
func sameDimMaskBelow(bit uint) uint64 {
	var dim uint64
	if bit%2 == 0 {
		dim = 0x5555555555555555 // even bits: x dimension
	} else {
		dim = 0xAAAAAAAAAAAAAAAA // odd bits: y dimension
	}
	if bit == 0 {
		return 0
	}
	below := uint64(1)<<bit - 1
	return dim & below
}

// CommonPrefixLen returns the number of leading bits shared by a and b.
// It is used by QUILTS-style curve cost heuristics.
func CommonPrefixLen(a, b Key) int {
	return bits.LeadingZeros64(uint64(a) ^ uint64(b))
}
