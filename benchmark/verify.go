package main

import (
	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/index"
)

const (
	verifyEvery = 50 // every 50th range answer is compared with brute force
	verifyKNN   = 20 // kNN answers compared with a brute-force scan
)

// oracle answers by linear scan: the indexed points without the standing
// tombstones, plus the inserts of the current pass not yet deleted.
type oracle struct {
	base *index.Brute
	pts  []wazi.Point
	live map[wazi.Point]struct{}
}

func newOracle(pts, tombs []wazi.Point) *oracle {
	dead := make(map[wazi.Point]int, len(tombs))
	for _, p := range tombs {
		dead[p]++
	}
	kept := make([]wazi.Point, 0, len(pts))
	for _, p := range pts {
		if dead[p] > 0 {
			dead[p]-- // one tombstone removes one copy
			continue
		}
		kept = append(kept, p)
	}
	return &oracle{base: index.NewBrute(kept), pts: kept, live: map[wazi.Point]struct{}{}}
}

func (o *oracle) rangeQuery(r wazi.Rect) []wazi.Point {
	out := o.base.RangeQuery(r)
	for p := range o.live {
		if r.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

// before orders points by (distance to q, X, Y), the total order the
// program documents for kNN answers. It is the oracle's own, deliberately
// not geom.DistLess: the reference must not share code with what it checks.
func before(a, b, q wazi.Point) bool {
	da := (a.X-q.X)*(a.X-q.X) + (a.Y-q.Y)*(a.Y-q.Y)
	db := (b.X-q.X)*(b.X-q.X) + (b.Y-q.Y)*(b.Y-q.Y)
	if da != db {
		return da < db
	}
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// knn returns the k nearest indexed points in order, by one linear scan that
// keeps the best k in a sorted array.
func (o *oracle) knn(q wazi.Point, k int) []wazi.Point {
	bestK := make([]wazi.Point, 0, k+1)
	for _, p := range o.pts {
		if len(bestK) == k && !before(p, bestK[k-1], q) {
			continue
		}
		i := len(bestK)
		bestK = append(bestK, p)
		for ; i > 0 && before(p, bestK[i-1], q); i-- {
			bestK[i] = bestK[i-1]
		}
		bestK[i] = p
		if len(bestK) > k {
			bestK = bestK[:k]
		}
	}
	return bestK
}

func sameMultiset(a, b []wazi.Point) bool {
	return len(a) == len(b) && wazi.MultisetChecksum(a) == wazi.MultisetChecksum(b)
}

func sameSequence(a, b []wazi.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifier runs the untimed warm-up pass: it replays the workload's streams
// once, checks answers against the oracle (and, over HTTP, every answer
// against the same call made directly on the library), and records the
// answer sizes timed passes must reproduce.
type verifier struct {
	t         target
	ref       library // direct handle behind an HTTP target; nil otherwise
	or        *oracle
	exp       *expect
	attempted int
	failed    int
	refBuf    []wazi.Point
}

func (v *verifier) check(ok bool) {
	v.attempted++
	if !ok {
		v.failed++
	}
}

func (v *verifier) rangeOp(i int, r wazi.Rect) {
	n := v.t.rangeQuery(r)
	v.exp.ranges[i] = int32(n)
	ok := n >= 0
	if ok && v.ref != nil {
		v.refBuf = v.ref.RangeQueryAppend(v.refBuf[:0], r)
		ok = sameMultiset(v.t.answer(), v.refBuf)
	}
	if ok && i%verifyEvery == 0 {
		ok = sameMultiset(v.t.answer(), v.or.rangeQuery(r))
	}
	v.check(ok)
}

func (v *verifier) pointOps(in *inputs) {
	for i, p := range in.lookups {
		v.check(v.t.pointQuery(p) == in.present[i])
	}
}

func (v *verifier) knnOps(in *inputs) {
	for i, q := range in.knn {
		n := v.t.knn(q, knnK)
		v.exp.knn[i] = int32(n)
		ok := n == knnK
		if ok && v.ref != nil {
			v.refBuf = v.ref.KNNAppend(v.refBuf[:0], q, knnK)
			ok = sameSequence(v.t.answer(), v.refBuf)
		}
		if ok && i < verifyKNN {
			ok = sameSequence(v.t.answer(), v.or.knn(q, knnK))
		}
		v.check(ok)
	}
}

// readStreams verifies one read pass.
func (v *verifier) readStreams(in *inputs) {
	for i, r := range in.ranges {
		v.rangeOp(i, r)
	}
	v.pointOps(in)
	v.knnOps(in)
}

// churnStreams verifies one interleaved pass; range answers are checked
// against the oracle's view of the inserts still live at that op.
func (v *verifier) churnStreams(in *inputs) {
	for _, op := range in.churn {
		p := wazi.Point{}
		if op.kind != churnRange {
			p = in.writes[op.i]
		}
		switch op.kind {
		case churnRange:
			v.rangeOp(int(op.i), in.ranges[op.i])
		case churnInsert:
			v.t.insert(p)
			v.or.live[p] = struct{}{}
			v.check(true)
		case churnDelete:
			delete(v.or.live, p)
			v.check(v.t.remove(p))
		}
	}
	v.pointOps(in)
	v.knnOps(in)
}
