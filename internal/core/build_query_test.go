package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
)

// ---------- test data helpers ----------

func uniformPts(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func clusteredPts(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := []geom.Point{{X: 0.15, Y: 0.2}, {X: 0.7, Y: 0.25}, {X: 0.4, Y: 0.75}, {X: 0.85, Y: 0.85}}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		pts[i] = geom.Point{
			X: clamp01(c.X + rng.NormFloat64()*0.07),
			Y: clamp01(c.Y + rng.NormFloat64()*0.07),
		}
	}
	return pts
}

func clamp01(v float64) float64 { return math.Min(1, math.Max(0, v)) }

// skewedQueries generates a workload concentrated on two hotspots.
func skewedQueries(n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	hot := []geom.Point{{X: 0.7, Y: 0.25}, {X: 0.4, Y: 0.75}}
	qs := make([]geom.Rect, n)
	for i := range qs {
		c := hot[rng.Intn(len(hot))]
		w := 0.01 + rng.Float64()*0.05
		qs[i] = geom.Rect{
			MinX: clamp01(c.X + rng.NormFloat64()*0.05 - w),
			MinY: clamp01(c.Y + rng.NormFloat64()*0.05 - w),
		}
		qs[i].MaxX = clamp01(qs[i].MinX + 2*w)
		qs[i].MaxY = clamp01(qs[i].MinY + 2*w)
	}
	return qs
}

func bruteRange(pts []geom.Point, r geom.Rect) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		if r.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

func samePointSets(t *testing.T, got, want []geom.Point, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", ctx, len(got), len(want))
	}
	key := func(p geom.Point) [2]float64 { return [2]float64{p.X, p.Y} }
	g := make([][2]float64, len(got))
	w := make([][2]float64, len(want))
	for i := range got {
		g[i], w[i] = key(got[i]), key(want[i])
	}
	less := func(s [][2]float64) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i][0] != s[j][0] {
				return s[i][0] < s[j][0]
			}
			return s[i][1] < s[j][1]
		}
	}
	sort.Slice(g, less(g))
	sort.Slice(w, less(w))
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: point sets differ at %d: %v vs %v", ctx, i, g[i], w[i])
		}
	}
}

func randomQueryRect(rng *rand.Rand) geom.Rect {
	cx, cy := rng.Float64(), rng.Float64()
	w, h := rng.Float64()*0.3, rng.Float64()*0.3
	return geom.Rect{MinX: cx - w, MinY: cy - h, MaxX: cx + w, MaxY: cy + h}
}

// buildAll returns the four ablation variants of §6.9 over the same data and
// workload: Base, Base+SK, WaZI−SK, WaZI.
func buildAll(t *testing.T, pts []geom.Point, qs []geom.Rect, leaf int) map[string]*ZIndex {
	t.Helper()
	out := map[string]*ZIndex{}
	var err error
	if out["base"], err = BuildBase(pts, Options{LeafSize: leaf, DisableSkipping: true}); err != nil {
		t.Fatal(err)
	}
	if out["base+sk"], err = BuildBase(pts, Options{LeafSize: leaf}); err != nil {
		t.Fatal(err)
	}
	if out["wazi-sk"], err = BuildWaZI(pts, qs, Options{LeafSize: leaf, DisableSkipping: true, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if out["wazi"], err = BuildWaZI(pts, qs, Options{LeafSize: leaf, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	return out
}

// ---------- construction ----------

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := BuildBase(nil, Options{}); err != ErrNoPoints {
		t.Errorf("BuildBase(nil) err = %v, want ErrNoPoints", err)
	}
	if _, err := BuildWaZI(nil, nil, Options{}); err != ErrNoPoints {
		t.Errorf("BuildWaZI(nil) err = %v, want ErrNoPoints", err)
	}
}

func TestBuildInvariants(t *testing.T) {
	pts := clusteredPts(5000, 1)
	qs := skewedQueries(200, 2)
	for name, z := range buildAll(t, pts, qs, 64) {
		if err := z.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if z.Len() != len(pts) {
			t.Errorf("%s: Len = %d, want %d", name, z.Len(), len(pts))
		}
		if z.Depth() < 2 {
			t.Errorf("%s: suspiciously shallow tree (depth %d)", name, z.Depth())
		}
	}
}

func TestLeafSizeRespected(t *testing.T) {
	pts := uniformPts(3000, 3)
	z, err := BuildBase(pts, Options{LeafSize: 100, DisableSkipping: true})
	if err != nil {
		t.Fatal(err)
	}
	for l := z.head; l != nil; l = l.next {
		if l.Len() > 100 {
			t.Fatalf("leaf with %d points exceeds capacity 100", l.Len())
		}
	}
}

func TestSinglePointAndTinyInputs(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		pts := uniformPts(n, int64(n))
		z, err := BuildBase(pts, Options{LeafSize: 8})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := z.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		all := z.RangeQuery(z.Bounds())
		if len(all) != n {
			t.Fatalf("n=%d: full-domain query returned %d", n, len(all))
		}
	}
}

func TestCoincidentPoints(t *testing.T) {
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Point{X: 0.5, Y: 0.5}
	}
	z, err := BuildBase(pts, Options{LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := z.RangeQuery(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if len(got) != 1000 {
		t.Fatalf("got %d points, want 1000", len(got))
	}
	if !z.PointQuery(geom.Point{X: 0.5, Y: 0.5}) {
		t.Error("point query for the coincident point failed")
	}
}

func TestCollinearPoints(t *testing.T) {
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = geom.Point{X: 0.3, Y: float64(i) / 2000}
	}
	for _, build := range []func() (*ZIndex, error){
		func() (*ZIndex, error) { return BuildBase(pts, Options{LeafSize: 32}) },
		func() (*ZIndex, error) {
			return BuildWaZI(pts, skewedQueries(50, 4), Options{LeafSize: 32, Seed: 5})
		},
	} {
		z, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if err := z.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		got := z.RangeQuery(geom.Rect{MinX: 0, MinY: 0.25, MaxX: 1, MaxY: 0.5})
		want := bruteRange(pts, geom.Rect{MinX: 0, MinY: 0.25, MaxX: 1, MaxY: 0.5})
		samePointSets(t, got, want, "collinear")
	}
}

func TestWaZIEmptyWorkloadFallsBackToBalanced(t *testing.T) {
	pts := uniformPts(4000, 6)
	z, err := BuildWaZI(pts, nil, Options{LeafSize: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// With median fallbacks everywhere the tree should be about as deep as
	// the base tree, not a degenerate path.
	b, _ := BuildBase(pts, Options{LeafSize: 64})
	if z.Depth() > b.Depth()+3 {
		t.Errorf("empty-workload WaZI depth %d vs base %d", z.Depth(), b.Depth())
	}
}

func TestWaZIExactCountsOption(t *testing.T) {
	pts := clusteredPts(3000, 8)
	qs := skewedQueries(100, 9)
	z, err := BuildWaZI(pts, qs, Options{LeafSize: 64, Seed: 10, ExactCounts: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		r := randomQueryRect(rng)
		samePointSets(t, z.RangeQuery(r), bruteRange(pts, r), "exact-counts build")
	}
}

// ---------- monotonicity ----------

func TestMonotonicityProperty(t *testing.T) {
	pts := clusteredPts(4000, 12)
	qs := skewedQueries(150, 13)
	for name, z := range buildAll(t, pts, qs, 64) {
		rng := rand.New(rand.NewSource(14))
		for i := 0; i < 3000; i++ {
			a := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			b := geom.Point{X: a.X + rng.Float64()*(1-a.X), Y: a.Y + rng.Float64()*(1-a.Y)}
			la, lb := z.TreeTraversal(a), z.TreeTraversal(b)
			if la == nil || lb == nil {
				continue // empty quadrant
			}
			if la.ord > lb.ord {
				t.Fatalf("%s: monotonicity violated: leaf(%v).ord=%d > leaf(%v).ord=%d",
					name, a, la.ord, b, lb.ord)
			}
		}
	}
}

func TestDominatedIndexedPointsOrder(t *testing.T) {
	// The paper's statement: if point a in page X is dominated by b in page
	// Y != X, X precedes Y in the leaf list.
	pts := uniformPts(3000, 15)
	qs := skewedQueries(100, 16)
	for name, z := range buildAll(t, pts, qs, 32) {
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 2000; i++ {
			a, b := pts[rng.Intn(len(pts))], pts[rng.Intn(len(pts))]
			if !b.Dominates(a) {
				continue
			}
			la, lb := z.TreeTraversal(a), z.TreeTraversal(b)
			if la != lb && la.ord > lb.ord {
				t.Fatalf("%s: dominated point's leaf ord %d > dominating point's %d",
					name, la.ord, lb.ord)
			}
		}
	}
}

// ---------- range queries ----------

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	pts := clusteredPts(6000, 18)
	qs := skewedQueries(200, 19)
	variants := buildAll(t, pts, qs, 64)
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 200; i++ {
		r := randomQueryRect(rng)
		want := bruteRange(pts, r)
		for name, z := range variants {
			samePointSets(t, z.RangeQuery(r), want, name)
		}
	}
}

func TestRangeQueryWorkloadQueries(t *testing.T) {
	// The workload the index was optimized for must, of course, return
	// correct results too.
	pts := clusteredPts(6000, 21)
	qs := skewedQueries(300, 22)
	z, err := BuildWaZI(pts, qs, Options{LeafSize: 64, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range qs[:100] {
		samePointSets(t, z.RangeQuery(r), bruteRange(pts, r), "workload query")
	}
}

func TestRangeQueryEdgeRects(t *testing.T) {
	pts := uniformPts(2000, 24)
	z, err := BuildWaZI(pts, skewedQueries(50, 25), Options{LeafSize: 32, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	cases := []geom.Rect{
		{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2},       // superset of domain
		{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6},         // disjoint
		{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5}, // degenerate point rect
		{MinX: 0.3, MinY: -1, MaxX: 0.31, MaxY: 2},   // full-height sliver
		{MinX: -1, MinY: 0.7, MaxX: 2, MaxY: 0.71},   // full-width sliver
		{MinX: 0.9, MinY: 0.9, MaxX: 0.6, MaxY: 0.6}, // inverted (invalid)
		{MinX: 0, MinY: 0, MaxX: 0, MaxY: 1},         // zero-width edge
	}
	for _, r := range cases {
		var want []geom.Point
		if r.Valid() {
			want = bruteRange(pts, r)
		}
		samePointSets(t, z.RangeQuery(r), want, r.String())
	}
}

func TestRangeCountAndPhasedAgree(t *testing.T) {
	pts := clusteredPts(4000, 27)
	qs := skewedQueries(100, 28)
	z, err := BuildWaZI(pts, qs, Options{LeafSize: 64, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 100; i++ {
		r := randomQueryRect(rng)
		want := z.RangeQuery(r)
		if got := z.RangeCount(r); got != len(want) {
			t.Fatalf("RangeCount = %d, want %d", got, len(want))
		}
		phased, _, _ := z.RangeQueryPhased(r)
		samePointSets(t, phased, want, "phased")
	}
}

func TestRangeQueryAppendReusesBuffer(t *testing.T) {
	pts := uniformPts(1000, 31)
	z, _ := BuildBase(pts, Options{LeafSize: 64})
	buf := make([]geom.Point, 0, 1024)
	r := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}
	out := z.RangeQueryAppend(buf, r)
	if len(out) > 0 && &out[0] != &buf[:1][0] {
		t.Error("RangeQueryAppend should reuse the provided buffer capacity")
	}
	samePointSets(t, out, bruteRange(pts, r), "append")
}

// ---------- point queries ----------

func TestPointQuery(t *testing.T) {
	pts := clusteredPts(3000, 32)
	qs := skewedQueries(100, 33)
	for name, z := range buildAll(t, pts, qs, 64) {
		for i := 0; i < 500; i++ {
			if !z.PointQuery(pts[i*5]) {
				t.Fatalf("%s: indexed point %v not found", name, pts[i*5])
			}
		}
		rng := rand.New(rand.NewSource(34))
		falseHits := 0
		for i := 0; i < 500; i++ {
			q := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			found := z.PointQuery(q)
			var truth bool
			for _, p := range pts {
				if p == q {
					truth = true
					break
				}
			}
			if found != truth {
				falseHits++
			}
		}
		if falseHits > 0 {
			t.Errorf("%s: %d point-query mismatches", name, falseHits)
		}
		if z.PointQuery(geom.Point{X: 99, Y: 99}) {
			t.Errorf("%s: out-of-bounds point reported found", name)
		}
	}
}

// ---------- skipping ----------

func TestSkippingReducesBBChecks(t *testing.T) {
	pts := clusteredPts(20000, 35)
	naive, err := BuildBase(pts, Options{LeafSize: 64, DisableSkipping: true})
	if err != nil {
		t.Fatal(err)
	}
	skip, err := BuildBase(pts, Options{LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 200; i++ {
		r := randomQueryRect(rng)
		naive.RangeQuery(r)
		skip.RangeQuery(r)
	}
	nb, sb := naive.Stats().BBChecked, skip.Stats().BBChecked
	if sb >= nb {
		t.Errorf("skipping should reduce bounding-box checks: naive=%d skip=%d", nb, sb)
	}
	if skip.Stats().LookaheadJumps == 0 {
		t.Error("expected at least one look-ahead jump")
	}
}

func TestLookaheadPointerInvariants(t *testing.T) {
	pts := clusteredPts(8000, 37)
	qs := skewedQueries(200, 38)
	for _, name := range []string{"base+sk", "wazi"} {
		z := buildAll(t, pts, qs, 64)[name]
		// CheckInvariants includes the look-ahead validation, but assert the
		// specific sub-check too for a clearer failure signal.
		if err := z.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLookaheadChaseFindsEarliestImprovement(t *testing.T) {
	pts := uniformPts(5000, 39)
	z, err := BuildBase(pts, Options{LeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	// For every leaf and criterion, the pointer target must equal the
	// linear-scan earliest improving leaf.
	for l := z.head; l != nil; l = l.next {
		for c := Criterion(0); c < 4; c++ {
			var want *Leaf
			for m := l.next; m != nil; m = m.next {
				if Improves(c, l, m) {
					want = m
					break
				}
			}
			if got := l.la[c]; got != want {
				t.Fatalf("leaf %d criterion %v: pointer mismatch", l.ord, c)
			}
		}
	}
}

// ---------- cost model ----------

func TestRetrievalCostMatchesMeasuredScan(t *testing.T) {
	// With α=0 the model's cost of a query must equal the number of points
	// the naive scan actually touches.
	pts := clusteredPts(5000, 40)
	qs := skewedQueries(100, 41)
	for _, name := range []string{"base", "wazi-sk"} {
		z := buildAll(t, pts, qs, 64)[name]
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 100; i++ {
			r := randomQueryRect(rng)
			before := *z.Stats()
			z.RangeQuery(r)
			scanned := z.Stats().Diff(before).PointsScanned
			model := z.RetrievalCost(r, 0)
			if math.Abs(model-float64(scanned)) > 1e-6 {
				t.Fatalf("%s: model cost %v != measured scan %d for %v", name, model, scanned, r)
			}
		}
	}
}

func TestGreedyReducesWorkloadCost(t *testing.T) {
	pts := clusteredPts(8000, 43)
	qs := skewedQueries(400, 44)
	base, err := BuildBase(pts, Options{LeafSize: 64, DisableSkipping: true})
	if err != nil {
		t.Fatal(err)
	}
	// Exact counting removes estimator noise, making the greedy win
	// deterministic for this seed; the RFDE-driven build is validated
	// separately on the structural straddle workload below, where the win
	// is large enough to survive estimation error.
	wazi, err := BuildWaZI(pts, qs, Options{LeafSize: 64, Seed: 45, DisableSkipping: true, ExactCounts: true})
	if err != nil {
		t.Fatal(err)
	}
	cb := base.WorkloadCost(qs, 0.1)
	cw := wazi.WorkloadCost(qs, 0.1)
	if cw >= cb {
		t.Errorf("greedy construction should reduce workload cost: base=%v wazi=%v", cb, cw)
	}
}

func TestGreedyAvoidsBoundaryStraddle(t *testing.T) {
	// The structural advantage of adaptive partitioning (§4.1, Figure 1c):
	// when the workload concentrates on the base index's median crossing,
	// every query straddles all four root quadrants of Base, while WaZI can
	// move the split out of the hotspot. The cost gap is a factor of
	// several, far above estimator noise.
	pts := uniformPts(8000, 1)
	rng := rand.New(rand.NewSource(2))
	qs := make([]geom.Rect, 300)
	for i := range qs {
		cx := 0.5 + rng.NormFloat64()*0.01
		cy := 0.5 + rng.NormFloat64()*0.01
		w := 0.005 + rng.Float64()*0.01
		qs[i] = geom.Rect{MinX: cx - w, MinY: cy - w, MaxX: cx + w, MaxY: cy + w}
	}
	base, err := BuildBase(pts, Options{LeafSize: 64, DisableSkipping: true})
	if err != nil {
		t.Fatal(err)
	}
	cb := base.WorkloadCost(qs, 0.1)
	for _, exact := range []bool{false, true} {
		wazi, err := BuildWaZI(pts, qs, Options{LeafSize: 64, Seed: 3, DisableSkipping: true, ExactCounts: exact})
		if err != nil {
			t.Fatal(err)
		}
		cw := wazi.WorkloadCost(qs, 0.1)
		if cw > 0.5*cb {
			t.Errorf("exact=%v: expected a structural (>2x) win on the straddle workload: base=%v wazi=%v", exact, cb, cw)
		}
		// The optimized layout must also be measurably better, not just
		// better in the model: compare actual points scanned.
		before := *wazi.Stats()
		bBefore := *base.Stats()
		for _, r := range qs {
			wazi.RangeQuery(r)
			base.RangeQuery(r)
		}
		ws := wazi.Stats().Diff(before).PointsScanned
		bs := base.Stats().Diff(bBefore).PointsScanned
		if ws >= bs {
			t.Errorf("exact=%v: WaZI scanned %d points, Base %d; expected fewer", exact, ws, bs)
		}
	}
}

func TestCellCostReproducesEquationOne(t *testing.T) {
	// Hand-check Eq. 1 on a unit cell split at the center: a query entirely
	// in the bottom half (R in AB) must cost nA + nB under abcd.
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	split := geom.Point{X: 0.5, Y: 0.5}
	n := [4]float64{10, 20, 30, 40} // indexed A, B, C, D
	alpha := 0.5

	ab := geom.Rect{MinX: 0.2, MinY: 0.1, MaxX: 0.8, MaxY: 0.3}
	if got := CellCost(cell, split, OrderABCD, []geom.Rect{ab}, n, alpha); got != 30 {
		t.Errorf("R in AB under abcd: cost = %v, want nA+nB = 30", got)
	}
	// Under acbd, the same query spans positions A..B = A, C, B with C
	// skipped: nA + α·nC + nB.
	if got := CellCost(cell, split, OrderACBD, []geom.Rect{ab}, n, alpha); got != 10+0.5*30+20 {
		t.Errorf("R in AB under acbd: cost = %v, want nA+α·nC+nB = 45", got)
	}

	// R in AC under abcd: nA + α·nB + nC (Eq. 1 third term).
	ac := geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.3, MaxY: 0.8}
	if got := CellCost(cell, split, OrderABCD, []geom.Rect{ac}, n, alpha); got != 10+0.5*20+30 {
		t.Errorf("R in AC under abcd: cost = %v, want 50", got)
	}
	// R in AC under acbd: contiguous positions, nA + nC (Eq. 2).
	if got := CellCost(cell, split, OrderACBD, []geom.Rect{ac}, n, alpha); got != 40 {
		t.Errorf("R in AC under acbd: cost = %v, want nA+nC = 40", got)
	}

	// R in AD spans everything under both orderings.
	ad := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8}
	for _, o := range []Ordering{OrderABCD, OrderACBD} {
		if got := CellCost(cell, split, o, []geom.Rect{ad}, n, alpha); got != 100 {
			t.Errorf("R in AD under %v: cost = %v, want 100", o, got)
		}
	}
	// R entirely within one quadrant costs just that quadrant.
	dd := geom.Rect{MinX: 0.6, MinY: 0.6, MaxX: 0.9, MaxY: 0.9}
	if got := CellCost(cell, split, OrderABCD, []geom.Rect{dd}, n, alpha); got != 40 {
		t.Errorf("R in DD: cost = %v, want nD = 40", got)
	}
}

// ---------- small helpers ----------

func TestOrderingPosQuadInverse(t *testing.T) {
	for _, o := range []Ordering{OrderABCD, OrderACBD} {
		seen := map[int]bool{}
		for q := geom.Quadrant(0); q < 4; q++ {
			pos := o.Pos(q)
			if pos < 0 || pos > 3 {
				t.Fatalf("%v.Pos(%v) = %d out of range", o, q, pos)
			}
			if seen[pos] {
				t.Fatalf("%v: position %d assigned twice", o, pos)
			}
			seen[pos] = true
			if back := o.Quad(pos); back != q {
				t.Fatalf("%v: Quad(Pos(%v)) = %v", o, q, back)
			}
		}
	}
	// abcd visits A,B,C,D in positions 0..3; acbd visits A,C,B,D.
	if OrderABCD.Quad(1) != geom.QuadB || OrderACBD.Quad(1) != geom.QuadC {
		t.Error("ordering position tables wrong")
	}
}

func TestQuickMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
			if rng.Intn(4) == 0 && i > 0 {
				vals[i] = vals[rng.Intn(i)] // inject duplicates
			}
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		want := sorted[n/2]
		if got := QuickMedian(append([]float64(nil), vals...)); got != want {
			t.Fatalf("QuickMedian = %v, want %v (n=%d)", got, want, n)
		}
	}
}

func TestDescribe(t *testing.T) {
	pts := uniformPts(500, 47)
	b, _ := BuildBase(pts, Options{LeafSize: 64, DisableSkipping: true})
	w, _ := BuildWaZI(pts, skewedQueries(20, 48), Options{LeafSize: 64})
	if b.WorkloadAware() || !w.WorkloadAware() {
		t.Error("WorkloadAware flags wrong")
	}
	if !b.opts.DisableSkipping || w.opts.DisableSkipping {
		t.Error("SkippingEnabled flags wrong")
	}
	if b.Describe() == "" || w.Describe() == "" {
		t.Error("empty Describe")
	}
	if b.Bytes() <= 0 {
		t.Error("Bytes should be positive")
	}
}
