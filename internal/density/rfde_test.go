package density

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
)

func uniformPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func clusteredPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := []geom.Point{{X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.3}, {X: 0.5, Y: 0.8}}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		pts[i] = geom.Point{
			X: math.Min(1, math.Max(0, c.X+rng.NormFloat64()*0.05)),
			Y: math.Min(1, math.Max(0, c.Y+rng.NormFloat64()*0.05)),
		}
	}
	return pts
}

func TestTotalMatchesPointCount(t *testing.T) {
	pts := uniformPoints(1000, 1)
	f := NewForest(pts, DefaultOptions())
	if f.Total() != 1000 {
		t.Fatalf("Total = %v, want 1000", f.Total())
	}
}

func TestFullCoverIsExact(t *testing.T) {
	pts := clusteredPoints(5000, 2)
	f := NewForest(pts, DefaultOptions())
	all := geom.RectFromPoints(pts)
	got := f.Estimate(all)
	if math.Abs(got-5000) > 1e-6 {
		t.Fatalf("estimate over the full domain = %v, want 5000 exactly", got)
	}
}

func TestDisjointIsZero(t *testing.T) {
	pts := uniformPoints(1000, 3)
	f := NewForest(pts, DefaultOptions())
	if got := f.Estimate(geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}); got != 0 {
		t.Fatalf("estimate over disjoint rect = %v, want 0", got)
	}
	if got := f.Estimate(geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}); got != 0 {
		t.Fatalf("estimate over invalid rect = %v, want 0", got)
	}
}

// Statistical accuracy: on uniform and clustered data the forest estimate
// should land within a modest relative error of the exact count for
// moderately sized query rectangles.
func TestEstimateAccuracy(t *testing.T) {
	for name, pts := range map[string][]geom.Point{
		"uniform":   uniformPoints(20000, 4),
		"clustered": clusteredPoints(20000, 5),
	} {
		f := NewForest(pts, Options{Trees: 8, LeafSize: 32, Seed: 6})
		exact := NewExactCounter(pts)
		rng := rand.New(rand.NewSource(7))
		var sumRelErr float64
		trials := 100
		for i := 0; i < trials; i++ {
			cx, cy := rng.Float64(), rng.Float64()
			w := 0.05 + rng.Float64()*0.2
			r := geom.Rect{MinX: cx - w, MinY: cy - w, MaxX: cx + w, MaxY: cy + w}
			truth := exact.Estimate(r)
			got := f.Estimate(r)
			denom := math.Max(truth, 50) // avoid blowing up tiny counts
			sumRelErr += math.Abs(got-truth) / denom
		}
		avg := sumRelErr / float64(trials)
		// Clustered data is intrinsically harder for piecewise-constant
		// density models; 30% average relative error on small windows is
		// within the tolerance the construction algorithm needs (it only
		// ranks candidate splits).
		if avg > 0.30 {
			t.Errorf("%s: average relative error %.3f exceeds 0.30", name, avg)
		}
	}
}

func TestEmptyForest(t *testing.T) {
	f := NewForest(nil, DefaultOptions())
	if f.Total() != 0 {
		t.Errorf("empty forest Total = %v", f.Total())
	}
	if got := f.Estimate(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); got != 0 {
		t.Errorf("empty forest Estimate = %v", got)
	}
}

func TestDegenerateData(t *testing.T) {
	// All points coincide: forest must not recurse forever and the
	// estimate over any rect containing the point must equal n.
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{X: 0.5, Y: 0.5}
	}
	f := NewForest(pts, Options{Trees: 2, LeafSize: 16, Seed: 10})
	got := f.Estimate(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if math.Abs(got-500) > 1e-6 {
		t.Fatalf("estimate = %v, want 500", got)
	}
}

func TestCollinearData(t *testing.T) {
	// Points on a vertical line exercise the fallback split dimension.
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Point{X: 0.25, Y: float64(i) / 1000}
	}
	f := NewForest(pts, Options{Trees: 4, LeafSize: 16, Seed: 11})
	got := f.Estimate(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 0.5})
	if math.Abs(got-500) > 50 {
		t.Fatalf("estimate = %v, want about 500", got)
	}
}

func TestExactCounter(t *testing.T) {
	pts := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}, {X: 0.5, Y: 0.5}}
	c := NewExactCounter(pts)
	if c.Total() != 3 {
		t.Errorf("Total = %v", c.Total())
	}
	if got := c.Estimate(geom.Rect{MinX: 0, MinY: 0, MaxX: 0.6, MaxY: 0.6}); got != 2 {
		t.Errorf("Estimate = %v, want 2", got)
	}
}

// 1000 distinct points halve into 16 leaves of 62 or 63 points under 15
// internal nodes, in each of the four default trees; a node is a rectangle
// and two int32s.
func TestBytesNonZero(t *testing.T) {
	f := NewForest(uniformPoints(1000, 12), DefaultOptions())
	if got, want := f.Bytes(), int64(4*31*40); got != want {
		t.Errorf("forest Bytes = %d, want %d", got, want)
	}
}

func BenchmarkEstimate(b *testing.B) {
	pts := clusteredPoints(100000, 13)
	f := NewForest(pts, DefaultOptions())
	r := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = f.Estimate(r)
	}
	_ = sink
}
