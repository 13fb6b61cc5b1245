package wazi_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/workload"
)

// bruteKNN is the kNN oracle: one sort of everything under the documented
// (distance, X, Y) total order. It is deliberately the test's own code.
func bruteKNN(pts []wazi.Point, q wazi.Point, k int) []wazi.Point {
	out := append([]wazi.Point(nil), pts...)
	d := func(p wazi.Point) float64 { return (p.X-q.X)*(p.X-q.X) + (p.Y-q.Y)*(p.Y-q.Y) }
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if da, db := d(a), d(b); da != db {
			return da < db
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// knner is the query surface Index, Sharded and View share.
type knner interface {
	KNN(q wazi.Point, k int) []wazi.Point
}

func assertKNNExact(t *testing.T, x knner, live []wazi.Point, q wazi.Point, k int, ctx string) {
	t.Helper()
	got, want := x.KNN(q, k), bruteKNN(live, q, k)
	if len(got) != len(want) {
		t.Fatalf("%s: KNN(%v, %d) returned %d points, brute force %d", ctx, q, k, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: KNN(%v, %d) rank %d = %v, brute force %v", ctx, q, k, i, got[i], want[i])
		}
	}
}

func knnSharded(t *testing.T, pts []wazi.Point, qs []wazi.Rect) *wazi.Sharded {
	t.Helper()
	return newTestSharded(t, pts, qs, wazi.WithShards(4), wazi.WithoutAutoRebuild(),
		wazi.WithCompactThreshold(1<<20))
}

// TestKNNExactOnDegenerateInputs holds Index and a 4-shard Sharded to the
// brute-force answer, point for point, on the inputs that break spatial
// code: mass ties on a grid (straddling the shard cuts), near-duplicates one
// ulp apart, a single location repeated (zero-area bounds), and a circle of
// equidistant points around the query.
func TestKNNExactOnDegenerateInputs(t *testing.T) {
	grid := make([]wazi.Point, 0, 32*32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			grid = append(grid, wazi.Point{X: float64(x), Y: float64(y)})
		}
	}
	rng := rand.New(rand.NewSource(99))
	var near []wazi.Point
	for len(near) < 3000 {
		x, y := rng.NormFloat64()*0.5, rng.NormFloat64()*0.5
		near = append(near, wazi.Point{X: x, Y: y})
		for i := rng.Intn(4); i > 0; i-- {
			x = math.Nextafter(x, x+1)
		}
		for i := rng.Intn(4); i > 0; i-- {
			y = math.Nextafter(y, y+1)
		}
		near = append(near, wazi.Point{X: x, Y: y})
	}
	same := make([]wazi.Point, 300)
	for i := range same {
		same[i] = wazi.Point{X: 0.3, Y: 0.7}
	}
	centre := wazi.Point{X: 0.5, Y: 0.5}
	circle := make([]wazi.Point, 720)
	for i := range circle {
		a := 2 * math.Pi * float64(i) / float64(len(circle))
		circle[i] = wazi.Point{X: centre.X + math.Cos(a), Y: centre.Y + math.Sin(a)}
	}

	cases := []struct {
		name    string
		pts     []wazi.Point
		queries []wazi.Point
	}{
		{"grid", grid, []wazi.Point{{X: 15.5, Y: 15.5}, {X: 16, Y: 16}, {X: 0, Y: 0}, {X: 15.5, Y: 8}, {X: 31, Y: 16}}},
		{"nextafter", near, []wazi.Point{near[0], near[1], near[2000], {X: 0, Y: 0}, {X: 1.5, Y: -1.5}}},
		{"identical", same, []wazi.Point{same[0], {X: 0, Y: 0}, {X: 0.3, Y: 9}}},
		{"circle", circle, []wazi.Point{centre, {X: centre.X + 1e-9, Y: centre.Y}, circle[0]}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			idx, err := wazi.New(c.pts)
			if err != nil {
				t.Fatal(err)
			}
			s := knnSharded(t, c.pts, nil)
			n := len(c.pts)
			// Far outside the data MBR: many empty windows before the first hit.
			queries := append(c.queries, wazi.Point{X: 1e6, Y: -1e6})
			for _, q := range queries {
				// 1, a page-ish, enough to span several shards, all but one,
				// all, and more than exist.
				for _, k := range []int{1, 10, n / 2, n - 1, n, n + 5} {
					assertKNNExact(t, idx, c.pts, q, k, "index")
					assertKNNExact(t, s, c.pts, q, k, fmt.Sprintf("sharded/%d", s.NumShards()))
				}
			}
		})
	}
}

// TestShardedKNNExactUnderWrites walks one Sharded through the states a
// shard can be in — tombstones over the true top-k, drained to empty,
// serving from its insert buffer alone — and through a rebuild behind a
// pinned View, checking every answer against brute force.
func TestShardedKNNExactUnderWrites(t *testing.T) {
	pts := testData(4000, 7)
	s := knnSharded(t, pts, testWorkload(200, 8))
	live := append([]wazi.Point(nil), pts...)
	remove := func(p wazi.Point) {
		t.Helper()
		if !s.Delete(p) {
			t.Fatalf("Delete(%v) missed", p)
		}
		for i, l := range live {
			if l == p {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
		t.Fatalf("oracle does not hold %v", p)
	}
	queries := append(dataset.Sample(pts, 12, 9), wazi.Point{X: 0.5, Y: 0.5}, wazi.Point{X: -3, Y: 4})
	check := func(x knner, live []wazi.Point, ctx string) {
		t.Helper()
		for _, q := range queries {
			for _, k := range []int{1, 10, 200} {
				assertKNNExact(t, x, live, q, k, ctx)
			}
		}
	}
	check(s, live, "fresh")

	// Tombstone exactly the points the next answers would have led with.
	for _, q := range queries {
		for _, p := range bruteKNN(live, q, 10) {
			remove(p)
		}
	}
	check(s, live, "tombstoned top-k")

	// Drain one shard and compact it: the shard is empty.
	const drained = 1
	for _, p := range append([]wazi.Point(nil), live...) {
		if s.ShardOf(p) == drained {
			remove(p)
		}
	}
	if !s.RebuildShard(drained) {
		t.Fatal("rebuild of the drained shard did not swap")
	}
	if empty, _ := s.ShardState(drained); !empty {
		t.Fatal("drained shard is not empty")
	}
	check(s, live, "empty shard")

	// Refill it through the write path only: it serves from its buffer.
	refill := 0
	for _, p := range testData(2000, 10) {
		if s.ShardOf(p) == drained {
			s.Insert(p)
			live = append(live, p)
			refill++
		}
	}
	if _, bufferOnly := s.ShardState(drained); !bufferOnly || refill < 20 {
		t.Fatalf("shard %d: bufferOnly=%v after %d inserts", drained, bufferOnly, refill)
	}
	check(s, live, "buffer-only shard")

	// A View pinned here keeps answering from this content while every
	// shard is rebuilt underneath it over different content.
	v := s.View()
	pinned := append([]wazi.Point(nil), live...)
	for _, p := range dataset.Sample(pinned, 300, 11) {
		remove(p)
	}
	for _, p := range testData(300, 12) {
		s.Insert(p)
		live = append(live, p)
	}
	for i := 0; i < s.NumShards(); i++ {
		if !s.RebuildShard(i) {
			t.Fatalf("rebuild of shard %d did not swap", i)
		}
	}
	check(v, pinned, "view pinned across rebuild")
	check(s, live, "after rebuild")
}

// TestKNNNonFiniteTerminates pins the hang fix: a non-finite query point
// used to double its window forever. It has no neighbours.
func TestKNNNonFiniteTerminates(t *testing.T) {
	pts := testData(2000, 21)
	idx, err := wazi.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	s := knnSharded(t, pts, nil)
	targets := map[string]knner{"index": idx, "sharded": s, "view": s.View()}
	inf, nan := math.Inf(1), math.NaN()
	bad := []wazi.Point{{X: inf, Y: 0.5}, {X: 0.5, Y: -inf}, {X: nan, Y: 0.5}, {X: nan, Y: nan}, {X: -inf, Y: inf}}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for name, x := range targets {
			for _, q := range bad {
				for _, k := range []int{5, len(pts) + 1} {
					if got := x.KNN(q, k); len(got) != 0 {
						t.Errorf("%s: KNN(%v, %d) returned %d points, want none", name, q, k, len(got))
					}
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("KNN with a non-finite query point did not return")
	}

	// Such a query scans nothing, and must say so: one fan-out observation
	// of width zero, not the width of whichever query pooled its arena last.
	s.RangeQuery(s.Bounds())
	o := s.Obs()
	n0, w0 := o.FanoutWidth.Count(), o.FanoutWidth.Sum()
	s.KNN(bad[0], 5)
	if n, w := o.FanoutWidth.Count()-n0, o.FanoutWidth.Sum()-w0; n != 1 || w != 0 {
		t.Fatalf("non-finite kNN recorded %d fan-outs of total width %v, want 1 of width 0", n, w)
	}
}

// knnWork replays a kNN stream and returns the work it cost: the index's
// own counters, and for a Sharded the fan-outs observed, the shards they
// targeted and the shards they pruned.
type knnWork struct {
	stats           wazi.Stats
	fanouts, pruned int64
	width           float64
	answers         int
}

func shardedKNNWork(s *wazi.Sharded, stream []wazi.Point, k int) knnWork {
	o := s.Obs()
	before, f0, w0, p0 := s.Stats(), o.FanoutWidth.Count(), o.FanoutWidth.Sum(), o.FanoutPruned.Value()
	var w knnWork
	var buf []wazi.Point
	for _, q := range stream {
		buf = s.KNNAppend(buf[:0], q, k)
		w.answers += len(buf)
	}
	w.stats = s.Stats().Diff(before)
	w.fanouts, w.width, w.pruned = o.FanoutWidth.Count()-f0, o.FanoutWidth.Sum()-w0, o.FanoutPruned.Value()-p0
	return w
}

// TestShardedKNNWorkBound is the exact-class gate on fan-out work: over the
// same points, a 4-shard kNN may scan at most twice the points and pages of
// a single Index. Counters only, no clock. (Sending a full-k search to every
// shard read 22x and 25x here.)
func TestShardedKNNWorkBound(t *testing.T) {
	pts := dataset.Generate(dataset.CaliNev, 60000, 31)
	qs := workload.Skewed(dataset.CaliNev, 600, 0.0256e-2, 32)
	stream := dataset.Generate(dataset.CaliNev, 300, 33)
	const k = 10
	idx, err := wazi.NewWorkloadAware(pts, qs, wazi.WithSeed(34))
	if err != nil {
		t.Fatal(err)
	}
	s := knnSharded(t, pts, qs)
	if s.NumShards() != 4 {
		t.Fatalf("built %d shards, want 4", s.NumShards())
	}

	before := idx.Stats().AtomicSnapshot()
	var buf []wazi.Point
	for _, q := range stream {
		buf = idx.KNNAppend(buf[:0], q, k)
	}
	single := idx.Stats().AtomicSnapshot().Diff(before)
	sharded := shardedKNNWork(s, stream, k)

	if sharded.answers != len(stream)*k {
		t.Fatalf("sharded kNN returned %d points over %d queries", sharded.answers, len(stream))
	}
	ratio := func(a, b int64) float64 { return float64(a) / float64(b) }
	t.Logf("points scanned %d vs %d (%.2fx), pages scanned %d vs %d (%.2fx), fan-out width %.2f of %d",
		sharded.stats.PointsScanned, single.PointsScanned, ratio(sharded.stats.PointsScanned, single.PointsScanned),
		sharded.stats.PagesScanned, single.PagesScanned, ratio(sharded.stats.PagesScanned, single.PagesScanned),
		sharded.width/float64(sharded.fanouts), s.NumShards())
	if sharded.stats.PointsScanned > 2*single.PointsScanned {
		t.Errorf("sharded kNN scanned %d points, more than twice the index's %d",
			sharded.stats.PointsScanned, single.PointsScanned)
	}
	if sharded.stats.PagesScanned > 2*single.PagesScanned {
		t.Errorf("sharded kNN scanned %d pages, more than twice the index's %d",
			sharded.stats.PagesScanned, single.PagesScanned)
	}
	if sharded.fanouts != int64(len(stream)) {
		t.Errorf("%d kNN queries recorded %d fan-out observations, want one each", len(stream), sharded.fanouts)
	}
}

// TestShardedKNNWorkSurvivesWriteRoundTrip pins that a kNN stream's work
// depends on the indexed content only: inserting fresh points (some far
// outside the data, stretching every never-shrinking MBR) and deleting them
// again leaves the stream's counters exactly where they were.
func TestShardedKNNWorkSurvivesWriteRoundTrip(t *testing.T) {
	pts := dataset.Generate(dataset.CaliNev, 20000, 41)
	s := knnSharded(t, pts, workload.Skewed(dataset.CaliNev, 300, 0.0256e-2, 42))
	stream := dataset.Generate(dataset.CaliNev, 200, 43)
	before := shardedKNNWork(s, stream, 10)

	fresh := dataset.Generate(dataset.CaliNev, 500, 44)
	fresh = append(fresh, wazi.Point{X: -7, Y: -7}, wazi.Point{X: 9, Y: 9}, wazi.Point{X: -7, Y: 9})
	for _, p := range fresh {
		s.Insert(p)
	}
	if during := shardedKNNWork(s, stream, 10); during.answers != before.answers {
		t.Fatalf("stream returned %d points with the fresh points in, %d before", during.answers, before.answers)
	}
	for _, p := range fresh {
		if !s.Delete(p) {
			t.Fatalf("Delete(%v) missed", p)
		}
	}
	if after := shardedKNNWork(s, stream, 10); after != before {
		t.Fatalf("kNN work moved across an insert/delete round trip:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestShardedKNNStaysOutOfWorkloadModel pins that the windows a kNN query
// probes with are not observed as workload — no shard load, no recent-query
// ring entry, no drift — while each scanned shard still gets its scan span.
func TestShardedKNNStaysOutOfWorkloadModel(t *testing.T) {
	pts := testData(8000, 51)
	s := knnSharded(t, pts, testWorkload(300, 52))
	type model struct {
		load   int64
		drift  float64
		recent int
	}
	read := func() []model {
		out := make([]model, s.NumShards())
		for i, info := range s.Shards() {
			out[i] = model{info.Load, info.Drift, len(s.RecentWindow(i))}
		}
		return out
	}
	before := read()
	for _, q := range dataset.Sample(pts, 200, 53) {
		s.KNN(q, 10)
	}
	for i, m := range read() {
		if m != before[i] {
			t.Fatalf("shard %d workload model moved under kNN: %+v -> %+v", i, before[i], m)
		}
	}
	s.RangeQuery(wazi.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if after := read(); after[0].load == before[0].load {
		t.Fatal("a range query did not count as shard load: the check above is blind")
	}

	// k = everything: the last window scans every shard, once more than the
	// windows before it did.
	scanned := s.Shards()
	if got := s.KNN(wazi.Point{X: 0.5, Y: 0.5}, len(pts)); len(got) != len(pts) {
		t.Fatalf("KNN returned %d points, want %d", len(got), len(pts))
	}
	for i, info := range s.Shards() {
		if info.PointsScanned <= scanned[i].PointsScanned {
			t.Fatalf("k = everything left shard %d unscanned (%d points before and after)", i, info.PointsScanned)
		}
	}
}
