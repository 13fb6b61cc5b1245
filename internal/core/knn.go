package core

import (
	"math"
	"slices"

	"github.com/wazi-index/wazi/internal/geom"
)

// KNN returns the k indexed points nearest to q in Euclidean distance,
// ordered nearest first. As the paper remarks (§6.3), indexes without a
// specialized kNN path process such queries as a sequence of range queries;
// KNNWindows is that sequence, so kNN latency tracks range-query latency
// exactly.
func (z *ZIndex) KNN(q geom.Point, k int) []geom.Point {
	if k <= 0 || z.count == 0 {
		return nil
	}
	return z.KNNAppend(nil, q, k)
}

// KNNAppend appends the k nearest neighbours of q to dst, nearest first,
// and returns the extended slice. The spare capacity of dst doubles as the
// working set for the window scans, so callers that reuse buffers between
// queries allocate nothing in steady state. Equidistant neighbours are
// ordered by (distance, X, Y) — see geom.DistLess — making the result
// deterministic across backends, shard layouts, and rebuilds.
func (z *ZIndex) KNNAppend(dst []geom.Point, q geom.Point, k int) []geom.Point {
	if k <= 0 || z.count == 0 {
		return dst
	}
	if k >= z.count && q.Finite() {
		// Every answerable point qualifies: one leaf walk, not windows.
		base := len(dst)
		all := z.PointsAppend(dst)
		dst = all[:base+len(slices.DeleteFunc(all[base:], func(p geom.Point) bool { return p != p }))]
		geom.SortByDistance(dst[base:], q)
		return dst
	}
	return KNNWindows(dst, z, q, k, KNNHalfWidth(z.bounds, z.count, k), z.bounds)
}

// RangeSource is what KNNWindows scans: a ZIndex, or a fan-out over the
// shards of a partitioned index.
type RangeSource interface {
	RangeQueryAppend(dst []geom.Point, r geom.Rect) []geom.Point
}

// KNNHalfWidth is the half-width of a square window expected to hold ~k
// points at the average density of n points spread over bounds: the first
// window KNNWindows should try.
func KNNHalfWidth(bounds geom.Rect, n, k int) float64 {
	area := bounds.Area()
	if area <= 0 {
		area = 1
	}
	return math.Sqrt(area*float64(k)/float64(n)) / 2
}

// KNNWindows answers a kNN query as a sequence of range queries against src,
// appending the k points nearest to q to dst in (distance, X, Y) order. It
// doubles a square window around q, starting at half-width half, until the
// window holds k points, then issues one final window guaranteed to contain
// the true neighbours. bounds must cover everything src serves: a window
// that contains it and still holds fewer than k points holds them all.
//
// The loop terminates on any input. A non-finite q has no neighbours, and
// neither does a query whose window grows to infinity without covering
// bounds (non-finite bounds).
func KNNWindows(dst []geom.Point, src RangeSource, q geom.Point, k int, half float64, bounds geom.Rect) []geom.Point {
	if k <= 0 || !q.Finite() {
		return dst
	}
	base := len(dst)
	if !(half > 0) || math.IsInf(half, 1) {
		half = 1e-9 // half is a hint; a useless one must not decide the answer
	}
	for ; !math.IsInf(half, 1); half *= 2 {
		window := square(q, half)
		dst = src.RangeQueryAppend(dst[:base], window)
		if len(dst)-base < k {
			if window.ContainsRect(bounds) {
				// The window covers everything; fewer than k points exist.
				geom.SortByDistance(dst[base:], q)
				return dst
			}
			continue
		}
		// The k-th nearest of the collected points bounds the true k-th
		// neighbour's distance, but points outside the square window may be
		// closer than corner-distance candidates inside it: issue one final
		// query with the certified radius. Only the first k are ever read,
		// so each window selects them rather than sorting every candidate.
		geom.NearestK(dst[base:], k, q)
		if r := dist(dst[base+k-1], q); r > half {
			dst = src.RangeQueryAppend(dst[:base], square(q, r))
			geom.NearestK(dst[base:], k, q)
		}
		return dst[:base+k]
	}
	return dst[:base]
}

// square returns the square window of half-width half centred on q.
func square(q geom.Point, half float64) geom.Rect {
	return geom.Rect{MinX: q.X - half, MinY: q.Y - half, MaxX: q.X + half, MaxY: q.Y + half}
}

// dist returns the Euclidean distance between a and b.
func dist(a, b geom.Point) float64 { return math.Sqrt(geom.DistSq(a, b)) }
