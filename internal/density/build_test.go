package density

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/geom"
)

// requireSameForest fails unless NewForest(pts, opts) equals the sort-based
// oracle's forest node for node (shape, region, weight) and returns the same
// float from Estimate on 1 000 random rectangles.
func requireSameForest(t testing.TB, pts []geom.Point, opts Options) {
	t.Helper()
	f := NewForest(pts, opts)
	want := oracleForest(pts, opts)
	if len(f.trees) != len(want) {
		t.Fatalf("%d trees, oracle has %d", len(f.trees), len(want))
	}
	for ti, root := range want {
		nodes := f.trees[ti]
		next := int32(0) // preorder position the walk has reached
		var walk func(o *oracleNode, path string)
		walk = func(o *oracleNode, path string) {
			at := next
			next++
			if int(at) >= len(nodes) {
				t.Fatalf("tree %d: ran out of nodes at %s", ti, path)
			}
			n := nodes[at]
			if n.region != o.region || float64(n.count) != o.weight {
				t.Fatalf("tree %d node %s: got %v weight %d, oracle %v weight %v",
					ti, path, n.region, n.count, o.region, o.weight)
			}
			if (n.right == 0) != (o.left == nil) {
				t.Fatalf("tree %d node %s: leaf=%v, oracle leaf=%v", ti, path, n.right == 0, o.left == nil)
			}
			if o.left == nil {
				return
			}
			walk(o.left, path+"L")
			if n.right != next {
				t.Fatalf("tree %d node %s: right child at %d, preorder says %d", ti, path, n.right, next)
			}
			walk(o.right, path+"R")
		}
		walk(root, "/")
		if int(next) != len(nodes) {
			t.Fatalf("tree %d: %d nodes, oracle has %d", ti, len(nodes), next)
		}
	}
	if len(pts) == 0 {
		return
	}
	b := geom.RectFromPoints(pts)
	w, h := math.Max(b.Width(), 1), math.Max(b.Height(), 1)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 1000; i++ {
		x0, y0 := b.MinX-0.1*w+rng.Float64()*1.2*w, b.MinY-0.1*h+rng.Float64()*1.2*h
		r := geom.Rect{MinX: x0, MinY: y0, MaxX: x0 + rng.Float64()*w/2, MaxY: y0 + rng.Float64()*h/2}
		if got, exp := f.Estimate(r), oracleEstimate(want, r); got != exp {
			t.Fatalf("Estimate(%v) = %v, oracle %v", r, got, exp)
		}
	}
}

// degenerateSets are point sets that put many points on a split plane or
// leave a dimension without spread.
func degenerateSets(n int) map[string][]geom.Point {
	rng := rand.New(rand.NewSource(5))
	sets := map[string][]geom.Point{}
	side := int(math.Sqrt(float64(n)))
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			sets["grid"] = append(sets["grid"], geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	for len(sets["nextafter"]) < n {
		x, y := rng.NormFloat64()*0.5, rng.NormFloat64()*0.5
		sets["nextafter"] = append(sets["nextafter"], geom.Point{X: x, Y: y})
		for i := rng.Intn(4); i > 0; i-- {
			x = math.Nextafter(x, x+1)
		}
		for i := rng.Intn(4); i > 0; i-- {
			y = math.Nextafter(y, y+1)
		}
		sets["nextafter"] = append(sets["nextafter"], geom.Point{X: x, Y: y})
	}
	for i := 0; i < n; i++ {
		v := float64(i) / float64(n)
		sets["identical"] = append(sets["identical"], geom.Point{X: 0.5, Y: 0.5})
		sets["collinear-x"] = append(sets["collinear-x"], geom.Point{X: 0.25, Y: v})
		sets["collinear-y"] = append(sets["collinear-y"], geom.Point{X: v, Y: -3})
		// Two values per coordinate, the lower one on more than half the
		// points: the median is the minimum.
		sets["two-valued"] = append(sets["two-valued"], geom.Point{X: float64(i % 5 / 3), Y: float64(i % 7 / 4)})
		sets["circle"] = append(sets["circle"], geom.Point{X: math.Cos(v), Y: math.Sin(v)})
		sets["signed-zero"] = append(sets["signed-zero"], geom.Point{X: math.Copysign(0, float64(i%3)-1), Y: float64(i % 2)})
	}
	rng.Shuffle(n, func(i, j int) {
		sets["two-valued"][i], sets["two-valued"][j] = sets["two-valued"][j], sets["two-valued"][i]
	})
	return sets
}

func TestForestMatchesSortOracle(t *testing.T) {
	for _, region := range []dataset.Region{dataset.CaliNev, dataset.NewYork} {
		for _, n := range []int{100, 5_000, 40_000} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%v/n=%d/seed=%d", region, n, seed), func(t *testing.T) {
					requireSameForest(t, dataset.Generate(region, n, seed), Options{Trees: 4, LeafSize: 64, Seed: seed})
				})
			}
		}
	}
	for name, pts := range degenerateSets(3_000) {
		for _, leaf := range []int{1, 16, 64} {
			for _, trees := range []int{1, 4, 8} {
				t.Run(fmt.Sprintf("%s/leaf=%d/trees=%d", name, leaf, trees), func(t *testing.T) {
					requireSameForest(t, pts, Options{Trees: trees, LeafSize: leaf, Seed: int64(leaf + trees)})
				})
			}
		}
	}
}

// FuzzForestBuild decodes bytes into a small point set on a coarse grid
// (many ties on every split plane) and requires the oracle's forest.
func FuzzForestBuild(f *testing.F) {
	f.Add([]byte{0}, uint8(1), int64(1))
	f.Add([]byte{0x00, 0x00, 0x00, 0x11, 0x11, 0x11, 0x23, 0x45, 0x67}, uint8(2), int64(3))
	f.Add([]byte("an index is a model of where the data is"), uint8(1), int64(7))
	f.Fuzz(func(t *testing.T, data []byte, leaf uint8, seed int64) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		pts := make([]geom.Point, len(data))
		for i, b := range data {
			pts[i] = geom.Point{X: float64(b >> 4), Y: float64(b & 3)}
		}
		requireSameForest(t, pts, Options{Trees: 2, LeafSize: 1 + int(leaf%8), Seed: seed})
	})
}

// TestSelectK checks the selection kernel against a sort, with the budget of
// rounds the builder gives it and with budgets that end in the sort fallback
// at once and after two rounds.
func TestSelectK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		vals := 1 + rng.Intn(n) // few distinct values on some trials
		s := make([]point, n)
		for i := range s {
			s[i] = point{float64(rng.Intn(vals)), float64(rng.Intn(vals))}
		}
		if trial%3 == 0 { // organ pipe
			for i := range s {
				s[i] = point{float64(min(i, n-1-i)), float64(min(i, n-1-i))}
			}
		}
		d, k := rng.Intn(2), rng.Intn(n)
		byDim := func(a, b point) int { return cmp.Or(cmp.Compare(a[d], b[d]), cmp.Compare(a[1-d], b[1-d])) }
		sorted := slices.Clone(s)
		slices.SortFunc(sorted, byDim)
		for _, limit := range []int{0, 2, 4 * bits.Len(uint(n))} {
			got := slices.Clone(s)
			selectK(got, k, d, limit)
			if got[k][d] != sorted[k][d] {
				t.Fatalf("n=%d k=%d limit=%d: s[k]=%v, want %v", n, k, limit, got[k][d], sorted[k][d])
			}
			for i, p := range got {
				if (i < k && p[d] > got[k][d]) || (i > k && p[d] < got[k][d]) {
					t.Fatalf("n=%d k=%d limit=%d: s[%d]=%v on the wrong side of s[k]=%v", n, k, limit, i, p[d], got[k][d])
				}
			}
			slices.SortFunc(got, byDim)
			if !slices.Equal(got, sorted) {
				t.Fatalf("n=%d k=%d limit=%d: selection changed the multiset", n, k, limit)
			}
		}
	}
}

// TestAdversarialInputsBuildFast: the orders that make a naive quickselect
// quadratic must build in seconds. A quadratic build over a million points
// would run for the better part of an hour, so the deadline is generous and
// the test still means something on a slow box.
func TestAdversarialInputsBuildFast(t *testing.T) {
	const n = 1_000_000
	inputs := map[string]func(i int) float64{
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(n - i) },
		"all-equal":  func(i int) float64 { return 7 },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-1-i)) },
		"few-values": func(i int) float64 { return float64(i % 3) },
	}
	for name, gen := range inputs {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: gen(i), Y: gen(i)}
		}
		done := make(chan *Forest, 1)
		start := time.Now()
		go func() { done <- NewForest(pts, Options{Trees: 1, LeafSize: 64, Seed: 1}) }()
		select {
		case f := <-done:
			if got := f.Estimate(geom.RectFromPoints(pts)); got != n {
				t.Errorf("%s: estimate over everything = %v, want %d", name, got, n)
			}
			t.Logf("%s: %v", name, time.Since(start))
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: build over %d points still running after 30s", name, n)
		}
	}
}
