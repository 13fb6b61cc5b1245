package core

import (
	"math"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
)

// TestKNNTieBreakDeterministic pins the (distance, X, Y) ordering of
// equidistant neighbours. A regular lattice queried at one of its nodes
// produces rings of exactly equidistant points; the result must match the
// brute-force total order element for element, regardless of leaf size,
// skipping, or build flavour. Before the tie-break, sort.Slice on distance
// alone returned these rings in whatever order the pages happened to be
// scanned, so mem-vs-disk and shard-merge comparisons could disagree on
// byte-identical datasets.
func TestKNNTieBreakDeterministic(t *testing.T) {
	var pts []geom.Point
	for i := 0; i <= 10; i++ {
		for j := 0; j <= 10; j++ {
			pts = append(pts, geom.Point{X: float64(i) / 10, Y: float64(j) / 10})
		}
	}
	q := geom.Point{X: 0.5, Y: 0.5}
	want := append([]geom.Point(nil), pts...)
	geom.SortByDistance(want, q)

	opts := []Options{
		{LeafSize: 4},
		{LeafSize: 16, Seed: 9},
		{LeafSize: 64, DisableSkipping: true},
	}
	for oi, opt := range opts {
		z, err := BuildBase(pts, opt)
		if err != nil {
			t.Fatalf("opts %d: %v", oi, err)
		}
		for _, k := range []int{1, 5, 9, 25, len(pts)} {
			got := z.KNN(q, k)
			if len(got) != k {
				t.Fatalf("opts %d: KNN(k=%d) returned %d points", oi, k, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("opts %d, k=%d: position %d is %v, want %v (tie-break violated)",
						oi, k, i, got[i], want[i])
				}
			}
		}
	}
}

// pointsSource serves a fixed point set by linear scan.
type pointsSource []geom.Point

func (s pointsSource) RangeQueryAppend(dst []geom.Point, r geom.Rect) []geom.Point {
	for _, p := range s {
		if r.Contains(p) {
			dst = append(dst, p)
		}
	}
	return dst
}

// TestKNNWindowsTerminates pins the loop's exits that no index reaches on
// well-formed data: bounds a window can never cover end the query without
// neighbours once the window has grown to infinity, and a useless initial
// half-width is replaced rather than doubled forever.
func TestKNNWindowsTerminates(t *testing.T) {
	src := pointsSource{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	q := geom.Point{X: 0, Y: 0}
	nan := math.NaN()
	bad := geom.Rect{MinX: nan, MinY: nan, MaxX: nan, MaxY: nan}
	keep := []geom.Point{{X: 9, Y: 9}}
	if got := KNNWindows(keep, src, q, 5, 0.1, bad); len(got) != 1 || got[0] != keep[0] {
		t.Fatalf("unreachable bounds: got %v, want dst untouched", got)
	}
	bounds := geom.Rect{MinX: 1, MinY: 1, MaxX: 3, MaxY: 3}
	for _, half := range []float64{0, -1, nan, math.Inf(1)} {
		got := KNNWindows(nil, src, q, 2, half, bounds)
		if len(got) != 2 || got[0] != src[0] || got[1] != src[1] {
			t.Fatalf("half=%v: got %v, want the two nearest", half, got)
		}
	}
	if got := KNNWindows(nil, src, q, 5, 0.1, bounds); len(got) != 3 {
		t.Fatalf("k beyond the source: got %d points, want all 3", len(got))
	}
}
