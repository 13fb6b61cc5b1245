package wazi_test

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/workload"
)

func testData(n int, seed int64) []wazi.Point {
	return dataset.Generate(dataset.NewYork, n, seed)
}

func testWorkload(n int, seed int64) []wazi.Rect {
	return workload.Skewed(dataset.NewYork, n, 0.0256e-2, seed)
}

func bruteRange(pts []wazi.Point, r wazi.Rect) []wazi.Point {
	var out []wazi.Point
	for _, p := range pts {
		if r.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

func sortPts(pts []wazi.Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
}

func assertSame(t *testing.T, got, want []wazi.Point, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d, want %d", ctx, len(got), len(want))
	}
	g := append([]wazi.Point(nil), got...)
	w := append([]wazi.Point(nil), want...)
	sortPts(g)
	sortPts(w)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: differ at %d: %v vs %v", ctx, i, g[i], w[i])
		}
	}
}

func TestEndToEndWaZI(t *testing.T) {
	pts := testData(8000, 1)
	qs := testWorkload(300, 2)
	idx, err := wazi.NewWorkloadAware(pts, qs, wazi.WithSeed(3), wazi.WithLeafSize(128))
	if err != nil {
		t.Fatal(err)
	}
	if !idx.WorkloadAware() {
		t.Error("WorkloadAware should be true")
	}
	if idx.Len() != len(pts) {
		t.Fatalf("Len = %d", idx.Len())
	}
	for _, r := range qs[:50] {
		assertSame(t, idx.RangeQuery(r), bruteRange(pts, r), "workload query")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		r := wazi.NewRect(
			wazi.Point{X: rng.Float64(), Y: rng.Float64()},
			wazi.Point{X: rng.Float64(), Y: rng.Float64()},
		)
		assertSame(t, idx.RangeQuery(r), bruteRange(pts, r), "random query")
		if got, want := idx.RangeCount(r), len(bruteRange(pts, r)); got != want {
			t.Fatalf("RangeCount = %d, want %d", got, want)
		}
	}
	if !idx.PointQuery(pts[17]) {
		t.Error("indexed point not found")
	}
	if idx.Bytes() <= 0 || idx.Describe() == "" {
		t.Error("accounting accessors broken")
	}
}

func TestEndToEndBase(t *testing.T) {
	pts := testData(4000, 5)
	idx, err := wazi.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	if idx.WorkloadAware() {
		t.Error("base index should not report workload awareness")
	}
	full := idx.RangeQuery(idx.Bounds())
	if len(full) != len(pts) {
		t.Fatalf("full query returned %d", len(full))
	}
}

func TestOptionsApply(t *testing.T) {
	pts := testData(3000, 6)
	qs := testWorkload(100, 7)
	_, err := wazi.NewWorkloadAware(pts, qs,
		wazi.WithLeafSize(64),
		wazi.WithCandidates(8),
		wazi.WithAlpha(0.01),
		wazi.WithoutSkipping(),
		wazi.WithSeed(8),
		wazi.WithExactCounts(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wazi.New(nil); err != wazi.ErrNoPoints {
		t.Errorf("empty build err = %v, want ErrNoPoints", err)
	}
}

func TestUpdatesAndKNN(t *testing.T) {
	pts := testData(2000, 9)
	idx, err := wazi.NewWorkloadAware(pts, testWorkload(100, 10), wazi.WithLeafSize(64))
	if err != nil {
		t.Fatal(err)
	}
	p := wazi.Point{X: 0.123, Y: 0.456}
	idx.Insert(p)
	if !idx.PointQuery(p) {
		t.Error("inserted point not found")
	}
	if !idx.Delete(p) {
		t.Error("delete failed")
	}
	if idx.PointQuery(p) {
		t.Error("deleted point still found")
	}
	nn := idx.KNN(wazi.Point{X: 0.5, Y: 0.5}, 5)
	if len(nn) != 5 {
		t.Fatalf("KNN returned %d", len(nn))
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	pts := testData(5000, 11)
	qs := testWorkload(200, 12)
	idx, err := wazi.NewWorkloadAware(pts, qs, wazi.WithSeed(13), wazi.WithLeafSize(128))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := wazi.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() {
		t.Fatalf("loaded Len = %d, want %d", loaded.Len(), idx.Len())
	}
	if !loaded.WorkloadAware() {
		t.Error("workload-awareness lost in roundtrip")
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 60; i++ {
		r := wazi.NewRect(
			wazi.Point{X: rng.Float64(), Y: rng.Float64()},
			wazi.Point{X: rng.Float64(), Y: rng.Float64()},
		)
		assertSame(t, loaded.RangeQuery(r), idx.RangeQuery(r), "loaded vs original")
	}
	// Loaded index remains updatable.
	loaded.Insert(wazi.Point{X: 0.5, Y: 0.5})
	if !loaded.PointQuery(wazi.Point{X: 0.5, Y: 0.5}) {
		t.Error("loaded index not updatable")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := wazi.Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("Load must reject garbage input")
	}
	if _, err := wazi.Load(bytes.NewReader(nil)); err == nil {
		t.Error("Load must reject empty input")
	}
	// Truncated snapshot.
	pts := testData(1000, 15)
	idx, _ := wazi.New(pts)
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := wazi.Load(bytes.NewReader(trunc)); err == nil {
		t.Error("Load must reject a truncated snapshot")
	}
}

func TestRebuildAdvisor(t *testing.T) {
	bounds := wazi.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	build := testWorkload(2000, 18)
	a := wazi.NewRebuildAdvisor(bounds, build, 512, 0.5)

	// Same-distribution traffic: low drift, no rebuild.
	same := testWorkload(2000, 19)
	for _, q := range same {
		a.Observe(q)
	}
	if d := a.Drift(); d > 0.3 {
		t.Errorf("same-distribution drift = %v, expected low", d)
	}
	if a.RebuildRecommended() {
		t.Error("rebuild recommended without drift")
	}

	// Shift to a differently skewed workload (another region): drift rises
	// past the threshold.
	other := workload.Skewed(dataset.CaliNev, 2000, 0.0256e-2, 20)
	for _, q := range other {
		a.Observe(q)
	}
	if d := a.Drift(); d < 0.5 {
		t.Errorf("post-shift drift = %v, expected above threshold", d)
	}
	if !a.RebuildRecommended() {
		t.Error("rebuild should be recommended after a full workload shift")
	}
	if a.Observed() != 4000 {
		t.Errorf("Observed = %d", a.Observed())
	}
}

func TestRebuildAdvisorWarmup(t *testing.T) {
	bounds := wazi.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	a := wazi.NewRebuildAdvisor(bounds, testWorkload(100, 21), 0, 0)
	// Below a quarter of the window, drift must report 0 (not enough
	// evidence).
	q := workload.Uniform(10, 0.0064e-2, 22)
	for _, r := range q {
		a.Observe(r)
	}
	if a.Drift() != 0 {
		t.Errorf("drift during warmup = %v, want 0", a.Drift())
	}
}

func TestWorkloadCostExposed(t *testing.T) {
	pts := testData(4000, 23)
	qs := testWorkload(200, 24)
	base, _ := wazi.New(pts, wazi.WithoutSkipping())
	aware, _ := wazi.NewWorkloadAware(pts, qs, wazi.WithSeed(25), wazi.WithoutSkipping(), wazi.WithExactCounts())
	cb := base.WorkloadCost(qs, 0.1)
	cw := aware.WorkloadCost(qs, 0.1)
	if cw > cb {
		t.Errorf("workload-aware cost %v exceeds base %v", cw, cb)
	}
}

// TestIndexNaNPointStoredNotServed gives Index Sharded's contract for a
// point with a NaN coordinate: it is stored and counted, but no read returns
// it and it widens no bound. One such point used to make the bounds NaN, and
// with them every range, point and kNN answer empty. ±Inf points are served.
func TestIndexNaNPointStoredNotServed(t *testing.T) {
	nan := math.NaN()
	pts := testData(3000, 41)
	qs := testWorkload(100, 42)
	for _, tc := range []struct {
		name  string
		build func() (*wazi.Index, error)
	}{
		{"New", func() (*wazi.Index, error) { return wazi.New(append(slices.Clone(pts), wazi.Point{X: 0.5, Y: nan})) }},
		{"NewWorkloadAware", func() (*wazi.Index, error) {
			return wazi.NewWorkloadAware(append(slices.Clone(pts), wazi.Point{X: nan, Y: nan}), qs, wazi.WithSeed(3))
		}},
		{"Insert", func() (*wazi.Index, error) {
			idx, err := wazi.New(pts)
			if err == nil {
				idx.Insert(wazi.Point{X: nan, Y: 0.5})
			}
			return idx, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			check := func(ctx string) {
				t.Helper()
				if idx.Len() != len(pts)+1 || len(idx.Points()) != len(pts)+1 {
					t.Fatalf("%s: Len %d, Points %d, want %d", ctx, idx.Len(), len(idx.Points()), len(pts)+1)
				}
				if b := idx.Bounds(); b != b {
					t.Fatalf("%s: bounds %v", ctx, b)
				}
				all := wazi.Rect{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}
				assertSame(t, idx.RangeQuery(all), pts, ctx+" full range")
				for _, q := range qs[:20] {
					assertSame(t, idx.RangeQuery(q), bruteRange(pts, q), ctx+" range")
					if n := idx.RangeCount(q); n != len(bruteRange(pts, q)) {
						t.Fatalf("%s: RangeCount %d, want %d", ctx, n, len(bruteRange(pts, q)))
					}
				}
				if !idx.PointQuery(pts[7]) {
					t.Fatalf("%s: indexed point %v not found", ctx, pts[7])
				}
				if got := idx.KNN(pts[7], 5); len(got) != 5 || got[0] != pts[7] {
					t.Fatalf("%s: KNN = %v", ctx, got)
				}
				if got := idx.KNN(pts[7], len(pts)+1); len(got) != len(pts) {
					t.Fatalf("%s: KNN of every point returned %d, want %d", ctx, len(got), len(pts))
				}
			}
			check("built")
			var snap bytes.Buffer
			if err := idx.Save(&snap); err != nil {
				t.Fatal(err)
			}
			if idx, err = wazi.Load(&snap); err != nil {
				t.Fatal(err)
			}
			check("reloaded")
		})
	}

	idx, err := wazi.New([]wazi.Point{{X: nan, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	inf := wazi.Point{X: math.Inf(1), Y: 2}
	idx.Insert(inf)
	idx.Insert(wazi.Point{X: 1, Y: 1})
	if got := idx.RangeQuery(wazi.Rect{MinX: 0, MinY: 0, MaxX: math.Inf(1), MaxY: 3}); len(got) != 2 || idx.Len() != 3 {
		t.Fatalf("all-NaN build then inserts: range %v, Len %d", got, idx.Len())
	}
	if !idx.PointQuery(inf) || len(idx.KNN(wazi.Point{X: 1, Y: 1}, 3)) != 2 {
		t.Fatal("an infinite point is no longer served")
	}
}
