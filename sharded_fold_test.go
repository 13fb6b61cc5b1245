package wazi

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/wazi-index/wazi/internal/index"
)

// A compaction folds a shard's delta into a copy of its index (foldShard).
// Whatever the delta, the folded index must hold exactly what a relearn
// would be built from, foldable(materialize(captured)), bit for bit, and
// the shard must keep answering every read as brute force does.

// checkFold compacts shard 0 of s and holds the folded index to the capture
// it folded and to ref.
func checkFold(t *testing.T, s *Sharded, ref *index.Brute, probes []Point, ctx string) *Index {
	t.Helper()
	want, idx := s.FoldShard(t, 0)
	if idx == nil {
		if len(want) != 0 {
			t.Fatalf("%s: the compaction left no index for %d points", ctx, len(want))
		}
	} else {
		got := idx.Points()
		slices.SortFunc(got, cmpBits)
		slices.SortFunc(want, cmpBits)
		if !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("%s: the folded index holds %d points, not the %d of the capture bit for bit", ctx, len(got), len(want))
		}
		if err := idx.z.Verify(); err != nil {
			t.Fatalf("%s: folded index: %v", ctx, err)
		}
	}
	checkRebased(t, s, ctx)
	checkDelta(t, s, ref, deltaRects(rand.New(rand.NewSource(5)), 20), probes, ctx)
	return idx
}

func sameBits(a, b Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// TestShardFoldMatchesCapture runs one delta per case through a compaction:
// each case deletes, inserts, folds, and checks, twice over, so the second
// round folds into an index that an earlier fold built.
func TestShardFoldMatchesCapture(t *testing.T) {
	negZero := math.Copysign(0, -1)
	base := deltaBase(600, 31)
	dup := base[7] // deltaBase holds two copies of each of its first points
	cluster := func(c Point, n int) []Point {
		rng := rand.New(rand.NewSource(int64(n)))
		out := make([]Point, n)
		for i := range out {
			out[i] = Point{X: c.X + 1e-4*rng.Float64(), Y: c.Y + 1e-4*rng.Float64()}
		}
		return out
	}
	inside := func(r Rect) []Point {
		var out []Point
		for _, p := range base {
			if r.Contains(p) {
				out = append(out, p)
			}
		}
		return out
	}
	cases := []struct {
		name     string
		ins, del []Point
		check    func(t *testing.T, before, after *Index)
	}{
		{name: "duplicates", ins: []Point{dup, dup, base[3], base[3], {X: 0.4, Y: 0.4}, {X: 0.4, Y: 0.4}}, del: []Point{dup}},
		// Round 1 tombstones two of the three copies round 0 folded in, in
		// the order −0, +0, −0: only the last one may stay.
		{name: "zeros", ins: []Point{{X: 0.25, Y: negZero}, {X: negZero, Y: 0.1}, {X: 0, Y: 0.1}, {X: negZero, Y: 0.1}},
			del: []Point{{X: 0, Y: 0.1}, {X: negZero, Y: 0.1}, {X: 0.1, Y: 0}}},
		{name: "multiplicity", del: []Point{dup, dup, base[8], base[8]}},
		{name: "outside", ins: []Point{{X: 1.5, Y: 0.5}, {X: -0.25, Y: 1.25}, {X: 3, Y: -2}},
			check: func(t *testing.T, before, after *Index) {
				if before.Bounds().ContainsRect(after.Bounds()) {
					t.Fatalf("bounds %v did not grow past %v", after.Bounds(), before.Bounds())
				}
			}},
		{name: "split", ins: cluster(Point{X: 0.6, Y: 0.6}, 80),
			check: func(t *testing.T, _, after *Index) {
				if after.Stats().PageSplits == 0 {
					t.Fatal("80 inserts into one leaf split nothing")
				}
			}},
		{name: "coincident", ins: slices.Repeat([]Point{{X: 0.7, Y: 0.3}}, 80)},
		{name: "merge", del: inside(Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}),
			check: func(t *testing.T, _, after *Index) {
				if after.Stats().PageMerges == 0 {
					t.Fatal("emptying a region merged no leaves")
				}
			}},
		{name: "empty", del: base},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := deltaSharded(t, base, 1)
			ref := index.NewBrute(base)
			probes := append(deltaPool(base), tc.ins...)
			for round := range 2 {
				before := s.snap.Load().shards[0].idx
				// Deletes first, so that they tombstone indexed copies
				// rather than cancel this round's inserts.
				for _, p := range tc.del {
					if got, want := s.Delete(p), ref.Delete(p); got != want {
						t.Fatalf("round %d: Delete(%v) = %v, brute force %v", round, p, got, want)
					}
				}
				for _, p := range tc.ins {
					s.Insert(p)
					ref.Insert(p)
				}
				after := checkFold(t, s, ref, probes, tc.name)
				if tc.check != nil && round == 0 {
					tc.check(t, before, after)
				}
				if after == nil {
					return
				}
			}
		})
	}
}
