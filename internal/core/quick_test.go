package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/wazi-index/wazi/internal/geom"
)

// This file uses testing/quick to drive randomized property checks of the
// core index: arbitrary point sets and query rectangles, arbitrary build
// configurations, always compared against brute force or validated against
// structural invariants.

// quickCase is a generatable test case: quick fills the fields with random
// values which we then normalize into a valid configuration.
type quickCase struct {
	Seed     int64
	N        uint16
	LeafBits uint8
	Skewed   bool
	Wazi     bool
}

func (c quickCase) points() []geom.Point {
	n := int(c.N)%900 + 20
	rng := rand.New(rand.NewSource(c.Seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		if c.Skewed {
			pts[i] = geom.Point{
				X: math.Min(1, math.Max(0, 0.3+rng.NormFloat64()*0.1)),
				Y: math.Min(1, math.Max(0, 0.6+rng.NormFloat64()*0.15)),
			}
		} else {
			pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		}
	}
	return pts
}

func (c quickCase) build(pts []geom.Point) (*ZIndex, error) {
	leaf := 8 << (c.LeafBits % 4) // 8, 16, 32, 64
	if c.Wazi {
		return BuildWaZI(pts, skewedQueries(30, c.Seed+1), Options{LeafSize: leaf, Seed: c.Seed, Kappa: 8})
	}
	return BuildBase(pts, Options{LeafSize: leaf})
}

// Property: any built index answers any rectangle exactly like brute force.
func TestQuickRangeQueryCorrect(t *testing.T) {
	f := func(c quickCase, qx, qy, qw, qh uint16) bool {
		pts := c.points()
		z, err := c.build(pts)
		if err != nil {
			return false
		}
		r := geom.Rect{
			MinX: float64(qx%1000)/1000 - 0.1,
			MinY: float64(qy%1000)/1000 - 0.1,
		}
		r.MaxX = r.MinX + float64(qw%600)/1000
		r.MaxY = r.MinY + float64(qh%600)/1000
		got := z.RangeQuery(r)
		want := bruteRange(pts, r)
		if len(got) != len(want) {
			return false
		}
		return z.RangeCount(r) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every built index satisfies the structural invariants,
// including look-ahead pointer safety.
func TestQuickInvariants(t *testing.T) {
	f := func(c quickCase) bool {
		z, err := c.build(c.points())
		if err != nil {
			return false
		}
		return z.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: dominance monotonicity of the leaf order holds for arbitrary
// point pairs under arbitrary configurations.
func TestQuickMonotonicity(t *testing.T) {
	f := func(c quickCase, ax, ay, dx, dy uint16) bool {
		z, err := c.build(c.points())
		if err != nil {
			return false
		}
		a := geom.Point{X: float64(ax%1000) / 1000, Y: float64(ay%1000) / 1000}
		b := geom.Point{X: a.X + float64(dx%300)/1000, Y: a.Y + float64(dy%300)/1000}
		la, lb := z.TreeTraversal(a), z.TreeTraversal(b)
		if la == nil || lb == nil {
			return true // one endpoint fell in an empty quadrant
		}
		return la.ord <= lb.ord
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a random update sequence preserves correctness: Len matches a
// reference multiset and a probe query matches brute force.
func TestQuickUpdates(t *testing.T) {
	f := func(c quickCase, ops []uint16) bool {
		pts := c.points()
		z, err := c.build(pts)
		if err != nil {
			return false
		}
		ref := append([]geom.Point(nil), pts...)
		rng := rand.New(rand.NewSource(c.Seed + 7))
		for _, op := range ops {
			if op%3 == 0 && len(ref) > 0 {
				i := int(op) % len(ref)
				p := ref[i]
				if !z.Delete(p) {
					return false
				}
				ref[i] = ref[len(ref)-1]
				ref = ref[:len(ref)-1]
			} else {
				p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
				z.Insert(p)
				ref = append(ref, p)
			}
		}
		if z.Len() != len(ref) {
			return false
		}
		r := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.7, MaxY: 0.7}
		return len(z.RangeQuery(r)) == len(bruteRange(ref, r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
