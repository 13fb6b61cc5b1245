// Package geom provides the two-dimensional geometric primitives shared by
// every index in this repository: points, axis-aligned rectangles, dominance
// tests, and overlap predicates.
//
// All indexes operate on float64 coordinates in an arbitrary data domain;
// the generators in internal/dataset emit points in the unit square, but
// nothing in this package assumes that.
package geom

import (
	"fmt"
	"math"
	"slices"
)

// Point is a location in the two-dimensional data space.
type Point struct {
	X, Y float64
}

// Dominates reports whether p dominates q: p is no smaller than q in both
// coordinates and strictly larger in at least one. This is the dominance
// relation used by the Z-index monotonicity property (§3 of the paper).
func (p Point) Dominates(q Point) bool {
	return p.X >= q.X && p.Y >= q.Y && (p.X > q.X || p.Y > q.Y)
}

// Finite reports whether both coordinates are finite (neither NaN nor ±Inf).
func (p Point) Finite() bool {
	return !math.IsInf(p.X, 0) && !math.IsNaN(p.X) && !math.IsInf(p.Y, 0) && !math.IsNaN(p.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Rect is a closed axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY].
// A range query R is represented by its bottom-left corner BL(R) =
// (MinX, MinY) and top-right corner TR(R) = (MaxX, MaxY).
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanned by two opposite corners, normalising
// the coordinate order so the result is valid regardless of which corners
// are supplied.
func NewRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// RectFromPoints returns the minimum bounding rectangle of pts less those with
// a NaN coordinate: the empty rectangle [+Inf, −Inf]², which ExtendPoint grows
// from, if none is left. It panics if pts is empty.
func RectFromPoints(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectFromPoints on empty slice")
	}
	r := Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, p := range pts {
		if p == p {
			r = r.ExtendPoint(p)
		}
	}
	return r
}

// BL returns the bottom-left corner of r.
func (r Rect) BL() Point { return Point{r.MinX, r.MinY} }

// TR returns the top-right corner of r.
func (r Rect) TR() Point { return Point{r.MaxX, r.MaxY} }

// Valid reports whether r has non-negative extent in both dimensions.
func (r Rect) Valid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Width returns the x-extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the y-extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r. Invalid rectangles report zero area.
func (r Rect) Area() float64 {
	if !r.Valid() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies within the closed rectangle r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// AppendInside appends to dst the points of pts that lie inside r, in their
// order in pts, and returns the extended slice: the filter every page and
// insert-buffer scan runs. The predicate is exactly Contains's — a closed
// rectangle, NaN on either side never inside, −0 equal to +0 — but the loop
// carries no data-dependent branch: every point is stored at dst[n] and n
// advances by the AND of the four comparisons, so a scan costs the same
// whether a third or all of its points qualify.
//
// dst first grows to hold all of pts, and the len(pts) slots after its
// length are scratch, so the result may carry up to len(pts) points of spare
// capacity — one scanned page or insert buffer. When no point qualifies, dst
// is returned as given (a nil dst stays nil), as append would.
func AppendInside(dst, pts []Point, r Rect) []Point {
	n := len(dst)
	out := slices.Grow(dst, len(pts))[:n+len(pts)]
	for _, p := range pts {
		out[n] = p
		n += inside(p, r)
	}
	if n == len(dst) {
		return dst
	}
	return out[:n]
}

// CountInside returns how many points of pts lie inside r: AppendInside
// without the store.
func CountInside(pts []Point, r Rect) int {
	n := 0
	for _, p := range pts {
		n += inside(p, r)
	}
	return n
}

// inside is Contains as 0 or 1, with no branch.
func inside(p Point, r Rect) int {
	return b2i(p.X >= r.MinX) & b2i(p.X <= r.MaxX) & b2i(p.Y >= r.MinY) & b2i(p.Y <= r.MaxY)
}

// b2i converts b to 0 or 1; the compiler lowers it to a SETcc, not a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// CmpXY orders points by X, then Y, each like cmp.Compare but with NaN after
// every number instead of before: a NaN fails both < and <=, so only at the
// end of the order does it keep the searches of LowerX and UpperX monotone.
func CmpXY(a, b Point) int {
	if c := cmpNaNLast(a.X, b.X); c != 0 {
		return c
	}
	return cmpNaNLast(a.Y, b.Y)
}

// cmpNaNLast is cmp.Compare with NaN last, and with no branch: a NaN fails
// both < and >, so the last two terms alone order it.
func cmpNaNLast(a, b float64) int {
	return b2i(a > b) - b2i(a < b) + b2i(a != a) - b2i(b != b)
}

// LowerX returns how many entries of s, sorted under CmpXY, have X < x.
// Each halving step adds the half masked by the compare's 0/1, as in
// AppendInside, so a search carries no data-dependent branch.
func LowerX(s []Point, x float64) int {
	base := 0
	for n := len(s); n > 1; n -= n / 2 {
		base += n / 2 & -b2i(s[base+n/2].X < x)
	}
	return base + b2i(len(s) > 0 && s[base].X < x)
}

// UpperX returns how many entries of s, sorted under CmpXY, have X <= x.
func UpperX(s []Point, x float64) int {
	base := 0
	for n := len(s); n > 1; n -= n / 2 {
		base += n / 2 & -b2i(s[base+n/2].X <= x)
	}
	return base + b2i(len(s) > 0 && s[base].X <= x)
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether the closed rectangles r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersect returns the overlap of r and s. The result is invalid (per
// Valid) when the rectangles are disjoint.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// ExtendPoint returns the minimum bounding rectangle of r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		MinX: math.Min(r.MinX, p.X),
		MinY: math.Min(r.MinY, p.Y),
		MaxX: math.Max(r.MaxX, p.X),
		MaxY: math.Max(r.MaxY, p.Y),
	}
}

// OverlapArea returns the area shared by r and s.
func (r Rect) OverlapArea(s Rect) float64 { return r.Intersect(s).Area() }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g, %g]x[%g, %g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Quadrant identifies one of the four child cells produced by splitting a
// cell at a split point. The naming follows Figure 1/Algorithm 1 of the
// paper: bitx = p.X > split.X, bity = p.Y > split.Y.
type Quadrant uint8

// The four quadrants. A is the bottom-left cell (both bits zero), B is
// bottom-right (bitx set), C is top-left (bity set), and D is top-right.
const (
	QuadA Quadrant = iota // bottom-left  (bitx=0, bity=0)
	QuadB                 // bottom-right (bitx=1, bity=0)
	QuadC                 // top-left     (bitx=0, bity=1)
	QuadD                 // top-right    (bitx=1, bity=1)
)

// String implements fmt.Stringer.
func (q Quadrant) String() string {
	switch q {
	case QuadA:
		return "A"
	case QuadB:
		return "B"
	case QuadC:
		return "C"
	case QuadD:
		return "D"
	}
	return fmt.Sprintf("Quadrant(%d)", uint8(q))
}

// QuadrantOf classifies p against the split point: which of the four child
// cells of a cell split at split contains p.
func QuadrantOf(p, split Point) Quadrant {
	var q Quadrant
	if p.X > split.X {
		q |= 1 // bitx
	}
	if p.Y > split.Y {
		q |= 2 // bity
	}
	return q
}

// QuadrantRect returns the sub-rectangle of cell corresponding to quadrant q
// under a split at split. The quadrants tile cell: shared edges are assigned
// to the lower quadrant, consistent with the strict > comparisons in
// QuadrantOf.
func QuadrantRect(cell Rect, split Point, q Quadrant) Rect {
	r := cell
	if q&1 != 0 {
		r.MinX = split.X
	} else {
		r.MaxX = split.X
	}
	if q&2 != 0 {
		r.MinY = split.Y
	} else {
		r.MaxY = split.Y
	}
	return r
}
