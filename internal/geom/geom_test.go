package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 1}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{1, 0.5}, true},
		{Point{0, 0}, true}, // corners are inside (closed rect)
		{Point{2, 1}, true},
		{Point{2, 0}, true},
		{Point{2.0001, 0.5}, false},
		{Point{-0.0001, 0.5}, false},
		{Point{1, 1.0001}, false},
		{Point{1, -0.0001}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{0.5, 0.5, 2, 2}, true},
		{Rect{1, 1, 2, 2}, true}, // touching at a corner counts
		{Rect{1.001, 0, 2, 1}, false},
		{Rect{0, 1.001, 1, 2}, false},
		{Rect{-1, -1, -0.001, 2}, false},
		{Rect{0.25, 0.25, 0.75, 0.75}, true}, // containment
		{a, true},                            // self
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("symmetry: %v.Intersects(%v) = %v, want %v", c.b, a, got, c.want)
		}
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Point{2, 3}, Point{-1, 1})
	want := Rect{-1, 1, 2, 3}
	if r != want {
		t.Fatalf("NewRect = %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Fatal("normalized rect should be valid")
	}
}

func TestRectFromPoints(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	r := RectFromPoints(pts)
	want := Rect{-2, -1, 4, 5}
	if r != want {
		t.Fatalf("RectFromPoints = %v, want %v", r, want)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("MBR must contain %v", p)
		}
	}
	nan := math.NaN()
	if got := RectFromPoints(append(pts, Point{nan, 0}, Point{0, nan})); got != want {
		t.Errorf("RectFromPoints with NaN points = %v, want %v", got, want)
	}
	empty := RectFromPoints([]Point{{nan, nan}})
	if empty.Contains(Point{}) || empty.ExtendPoint(Point{1, 2}) != (Rect{1, 2, 1, 2}) {
		t.Errorf("RectFromPoints of NaN points only = %v, want the empty rectangle", empty)
	}
	defer func() {
		if recover() == nil {
			t.Error("RectFromPoints(nil) should panic")
		}
	}()
	RectFromPoints(nil)
}

func TestIntersectUnionAreas(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	if got := a.Intersect(b); got != (Rect{1, 1, 2, 2}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); got != (Rect{0, 0, 3, 3}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.OverlapArea(b); got != 1 {
		t.Errorf("OverlapArea = %v, want 1", got)
	}
	disjoint := Rect{5, 5, 6, 6}
	if a.Intersect(disjoint).Valid() {
		t.Error("intersection of disjoint rects must be invalid")
	}
	if a.OverlapArea(disjoint) != 0 {
		t.Error("overlap area of disjoint rects must be 0")
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Point{1, 1}, Point{0, 0}, true},
		{Point{1, 0}, Point{0, 0}, true},
		{Point{0, 0}, Point{0, 0}, false}, // equal points do not dominate
		{Point{0, 1}, Point{1, 0}, false}, // incomparable
		{Point{0, 0}, Point{1, 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Dominates(c.b); got != c.want {
			t.Errorf("%v.Dominates(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestQuadrantOf(t *testing.T) {
	s := Point{0.5, 0.5}
	cases := []struct {
		p    Point
		want Quadrant
	}{
		{Point{0.2, 0.2}, QuadA},
		{Point{0.8, 0.2}, QuadB},
		{Point{0.2, 0.8}, QuadC},
		{Point{0.8, 0.8}, QuadD},
		{Point{0.5, 0.5}, QuadA}, // points on split lines go low
		{Point{0.5, 0.8}, QuadC},
		{Point{0.8, 0.5}, QuadB},
	}
	for _, c := range cases {
		if got := QuadrantOf(c.p, s); got != c.want {
			t.Errorf("QuadrantOf(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestQuadrantRectTilesCell(t *testing.T) {
	cell := Rect{0, 0, 4, 2}
	split := Point{1, 0.5}
	var total float64
	for q := Quadrant(0); q < 4; q++ {
		r := QuadrantRect(cell, split, q)
		if !cell.ContainsRect(r) {
			t.Errorf("quadrant %v rect %v escapes cell", q, r)
		}
		total += r.Area()
	}
	if total != cell.Area() {
		t.Errorf("quadrant areas sum to %v, want %v", total, cell.Area())
	}
}

// Property: QuadrantOf and QuadrantRect agree — every point lies inside the
// rect of its own quadrant.
func TestQuadrantConsistencyProperty(t *testing.T) {
	f := func(px, py, sx, sy float64) bool {
		cell := Rect{-1000, -1000, 1000, 1000}
		p := Point{clampf(px), clampf(py)}
		s := Point{clampf(sx), clampf(sy)}
		q := QuadrantOf(p, s)
		return QuadrantRect(cell, s, q).Contains(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: intersection is commutative and contained in both operands;
// union contains both operands.
func TestIntersectUnionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randRect := func() Rect {
		return NewRect(
			Point{rng.Float64()*10 - 5, rng.Float64()*10 - 5},
			Point{rng.Float64()*10 - 5, rng.Float64()*10 - 5},
		)
	}
	for i := 0; i < 2000; i++ {
		a, b := randRect(), randRect()
		ab, ba := a.Intersect(b), b.Intersect(a)
		if ab != ba {
			t.Fatalf("Intersect not commutative: %v vs %v", ab, ba)
		}
		if ab.Valid() && (!a.ContainsRect(ab) || !b.ContainsRect(ab)) {
			t.Fatalf("intersection %v escapes operands %v, %v", ab, a, b)
		}
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			t.Fatalf("union %v does not contain operands", u)
		}
		if a.Intersects(b) != ab.Valid() {
			t.Fatalf("Intersects disagrees with Intersect validity for %v, %v", a, b)
		}
	}
}

// Property: Contains(p) implies Intersects of the degenerate point rect.
func TestContainsIntersectsAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		r := NewRect(
			Point{rng.Float64(), rng.Float64()},
			Point{rng.Float64(), rng.Float64()},
		)
		p := Point{rng.Float64(), rng.Float64()}
		pr := Rect{p.X, p.Y, p.X, p.Y}
		if r.Contains(p) != r.Intersects(pr) {
			t.Fatalf("Contains and Intersects disagree for %v, %v", r, p)
		}
	}
}

func TestCenterAndExtend(t *testing.T) {
	r := Rect{0, 0, 2, 4}
	if r.Center() != (Point{1, 2}) {
		t.Errorf("Center = %v", r.Center())
	}
	e := r.ExtendPoint(Point{-1, 5})
	if e != (Rect{-1, 0, 2, 5}) {
		t.Errorf("ExtendPoint = %v", e)
	}
	if r.Width() != 2 || r.Height() != 4 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
}

func TestStrings(t *testing.T) {
	if s := (Point{1, 2}).String(); s == "" {
		t.Error("empty Point string")
	}
	if s := (Rect{0, 0, 1, 1}).String(); s == "" {
		t.Error("empty Rect string")
	}
	for q := Quadrant(0); q < 5; q++ {
		if q.String() == "" {
			t.Errorf("empty string for quadrant %d", q)
		}
	}
}

// clampf maps arbitrary float64 (including NaN/Inf from quick) into a sane
// test range.
func clampf(v float64) float64 {
	if v != v || v > 999 || v < -999 { // NaN or out of range
		return 0
	}
	return v
}
