package main

import (
	"math"
	"sort"
	"time"

	wazi "github.com/wazi-index/wazi"
)

// expect holds the answer sizes the verification pass established; timed
// passes compare against them, so a wrong answer is caught in every pass at
// the cost of an integer comparison.
type expect struct {
	ranges []int32
	knn    []int32
}

// samples are the latencies of one pass in nanoseconds per op, one slot per
// op of the fixed streams (per group of ops where ops are timed in groups).
type samples struct {
	ranges, lookups, knn, inserts, deletes []float64
}

func newSamples(in *inputs, knn int, fill float64) samples {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = fill
		}
		return s
	}
	return samples{ranges: mk(len(in.ranges)), lookups: mk(len(in.lookups)), knn: mk(knn),
		inserts: mk(len(in.writes)), deletes: mk(len(in.writes))}
}

// recorder holds the samples of the current pass and, slot by slot, the best
// (lowest) sample any pass has seen. Both are allocated once, so timed loops
// allocate nothing.
//
// The best-of-passes value of each slot is what the latency metrics are
// computed from. Every pass replays the same ops in the same order, so slot
// i always times the same op; noise on a shared host only ever adds time,
// and a slot needs just one undisturbed execution in K passes to read true.
type recorder struct {
	cur, best samples
	// n* are how many slots of each stream a pass fills (group timing fills
	// one slot per group).
	nLookups, nInserts, nDeletes int
	scratch                      []float64
}

func newRecorder(in *inputs, knn int) *recorder {
	return &recorder{cur: newSamples(in, knn, 0), best: newSamples(in, knn, math.Inf(1)),
		scratch: make([]float64, len(in.ranges))}
}

func lower(best, cur []float64) {
	for i, v := range cur {
		if v < best[i] {
			best[i] = v
		}
	}
}

// foldReads lowers the best read samples to the current pass's. It must run
// before summarize sorts the current samples out of slot order.
func (rec *recorder) foldReads(withKNN bool) {
	lower(rec.best.ranges, rec.cur.ranges)
	lower(rec.best.lookups[:rec.nLookups], rec.cur.lookups[:rec.nLookups])
	if withKNN {
		lower(rec.best.knn, rec.cur.knn)
	}
}

// foldWrites does the same for the write samples.
func (rec *recorder) foldWrites() {
	lower(rec.best.inserts[:rec.nInserts], rec.cur.inserts[:rec.nInserts])
	lower(rec.best.deletes[:rec.nDeletes], rec.cur.deletes[:rec.nDeletes])
}

// latencies are the percentiles of one set of samples, in microseconds.
type latencies struct {
	rangeP50, rangeP95, rangeP99           float64
	classP50                               [4]float64
	pointP50, knnP50, insertP50, deleteP50 float64
}

// quantile returns the nearest-rank q-quantile of sorted, in microseconds.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i] / 1e3
}

func median(s []float64) float64 {
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summarize computes the percentiles of s, which it sorts in place.
func (rec *recorder) summarize(s samples, in *inputs) latencies {
	var l latencies
	for c := range l.classP50 {
		sc := rec.scratch[:0]
		for i, v := range s.ranges {
			if int(in.class[i]) == c {
				sc = append(sc, v)
			}
		}
		l.classP50[c] = median(sc)
	}
	sort.Float64s(s.ranges)
	l.rangeP50 = quantile(s.ranges, 0.50)
	l.rangeP95 = quantile(s.ranges, 0.95)
	l.rangeP99 = quantile(s.ranges, 0.99)
	l.pointP50 = median(s.lookups[:rec.nLookups])
	l.knnP50 = median(s.knn)
	l.insertP50 = median(s.inserts[:rec.nInserts])
	l.deleteP50 = median(s.deletes[:rec.nDeletes])
	return l
}

// slices is how many runs of consecutive ops each phase of a pass is cut
// into for throughput: ops_per_s sums the best wall time of every slice. A
// whole phase (0.1-0.9 s) rarely fits inside one undisturbed stretch of this
// host; a sixteenth of it usually does in one of K passes, and is still long
// enough to contain its share of garbage collection and, where the op stream
// puts one, a whole inline shard rebuild.
const slices = 16

// counts are the program's public counters, read around a pass.
type counts struct {
	work       wazi.Stats
	rebuilds   int64   // completed shard rebuilds
	fanQueries int64   // fan-outs observed by Sharded.Obs().FanoutWidth
	fanWidth   float64 // shards targeted, summed over those fan-outs
	fanPruned  int64   // shards skipped by pruning
}

func (a counts) diff(b counts) counts {
	return counts{a.work.Diff(b.work), a.rebuilds - b.rebuilds, a.fanQueries - b.fanQueries,
		a.fanWidth - b.fanWidth, a.fanPruned - b.fanPruned}
}

// repeatable returns c without the counters that need not repeat from one
// cycle of passes to the next. The block cache's settle only in the second
// cycle (the first timed pass starts from the state the verification pass
// left). Where a pass rebuilds a shard, the counters that depend on the
// rebuilt shard's layout never settle exactly: a rebuild trains on a one-in-
// four sample of the shard's recent queries and reads its points in the
// order the previous layout held them, so successive layouts differ in a few
// leaves (2 of 80 000 bounding-box checks per pass). What the op stream
// alone decides must repeat everywhere: ops, answers, writes, rebuilds,
// fan-out.
func (c counts) repeatable(rebuilds, firstCycle bool) counts {
	w := &c.work
	if firstCycle {
		w.CacheHits, w.CacheMisses, w.CacheEvictions = 0, 0, 0
	}
	if rebuilds {
		w.NodesVisited, w.BBChecked, w.PagesScanned, w.PointsScanned, w.LookaheadJumps = 0, 0, 0, 0, 0
		w.PageSplits, w.PageMerges = 0, 0
	}
	return c
}

// passStats are the wall times, op counts and work counters of one pass.
type passStats struct {
	// slice holds the wall time of every slice of the range (or interleaved,
	// or insert) phase, the point (or delete) phase and the kNN phase; ops
	// the number of ops of each phase.
	slice [3][slices]time.Duration
	ops   [3]int
	wrong int // answers that differ from the verified ones
	// rangeWork is the program's own counters over the range phase (the
	// interleaved phase under churn, where it includes the deletes' existence
	// probes); work covers the whole pass.
	rangeWork, work counts
}

func (p passStats) phase(i int) time.Duration {
	var d time.Duration
	for _, s := range p.slice[i] {
		d += s
	}
	return d
}

func (p passStats) wall() time.Duration { return p.phase(0) + p.phase(1) + p.phase(2) }

func (p passStats) total() int { return p.ops[0] + p.ops[1] + p.ops[2] }

// opsPerSec is the throughput of a cycle of knnEvery passes, of which one
// runs the kNN phase.
func (p passStats) opsPerSec(knnEvery int) float64 {
	k := float64(knnEvery)
	return (k*float64(p.ops[0]+p.ops[1]) + float64(p.ops[2])) /
		(k*(p.phase(0)+p.phase(1)).Seconds() + p.phase(2).Seconds())
}

// fastest lowers each slice of b to p's (a pass that skipped the kNN phase
// leaves that phase alone).
func (b *passStats) fastest(p passStats) {
	for i := range p.slice {
		if p.ops[i] == 0 {
			continue
		}
		for k, d := range p.slice[i] {
			if b.ops[i] == 0 || d < b.slice[i][k] {
				b.slice[i][k] = d
			}
		}
		b.ops[i] = p.ops[i]
	}
}

// slicer stamps the slices of one phase of n ops. done is called with the
// clock reading taken when op i returned, so slicing costs no clock read of
// its own.
type slicer struct {
	dst   *[slices]time.Duration
	n, k  int
	start time.Time
}

func (s *slicer) done(i int, now time.Time) {
	for s.k < slices && i+1 >= (s.k+1)*s.n/slices {
		s.dst[s.k] = now.Sub(s.start)
		s.start = now
		s.k++
	}
}

// timeGroups runs op over items lo..hi-1 in groups of g consecutive calls and
// stores one sample per group in dst[lo/g:]: group time / g. It returns the
// number of samples. Ops faster than about 2µs are timed this way (g =
// group), so that the two clock reads do not dominate the sample; slower ops
// use g = 1. sl, if not nil, receives the slices of a phase that is all of
// the stream.
func timeGroups(lo, hi, g int, dst []float64, sl *[slices]time.Duration, op func(i int)) int {
	s := slicer{dst: sl, n: (hi - lo) / g, start: time.Now()}
	k := 0
	for ; lo+g <= hi; lo += g {
		t0 := time.Now()
		for i := lo; i < lo+g; i++ {
			op(i)
		}
		t1 := time.Now()
		dst[lo/g] = float64(t1.Sub(t0)) / float64(g)
		if sl != nil {
			s.done(k, t1)
		}
		k++
	}
	return k
}

// pointAndKNN replays the point stream (in groups of g) and, if withKNN, the
// kNN stream.
func pointAndKNN(t target, in *inputs, exp *expect, rec *recorder, g int, withKNN bool, st *passStats) {
	found := 0
	rec.nLookups = timeGroups(0, len(in.lookups), g, rec.cur.lookups, &st.slice[1], func(i int) {
		if t.pointQuery(in.lookups[i]) {
			found++
		}
	})
	st.ops[1] = rec.nLookups * g
	for _, ok := range in.present[st.ops[1]:] {
		if ok {
			found++ // the tail that does not fill a group is not replayed
		}
	}
	if found != in.nFound {
		st.wrong++
	}
	if !withKNN {
		return
	}
	s := slicer{dst: &st.slice[2], n: len(rec.cur.knn), start: time.Now()}
	for i := range rec.cur.knn {
		t0 := time.Now()
		n := t.knn(in.knn[i], knnK)
		t1 := time.Now()
		rec.cur.knn[i] = float64(t1.Sub(t0))
		s.done(i, t1)
		if n != int(exp.knn[i]) {
			st.wrong++
		}
	}
	st.ops[2] = len(rec.cur.knn)
}

// readPass replays the range, point and kNN streams once, in that order.
func readPass(t target, read func() counts, in *inputs, exp *expect, rec *recorder, g int, withKNN bool) passStats {
	var st passStats
	before := read()
	s := slicer{dst: &st.slice[0], n: len(in.ranges), start: time.Now()}
	for i, r := range in.ranges {
		t0 := time.Now()
		n := t.rangeQuery(r)
		t1 := time.Now()
		rec.cur.ranges[i] = float64(t1.Sub(t0))
		s.done(i, t1)
		if n != int(exp.ranges[i]) {
			st.wrong++
		}
	}
	st.ops[0] = len(in.ranges)
	st.rangeWork = read().diff(before)
	pointAndKNN(t, in, exp, rec, g, withKNN, &st)
	st.work = read().diff(before)
	return st
}

// writePass replays the write stream in rounds: each inserts round points,
// then deletes exactly those. round is a multiple of g.
func writePass(t target, read func() counts, in *inputs, rec *recorder, g, round int) passStats {
	var st passStats
	before := read()
	start := time.Now()
	for lo := 0; lo < len(in.writes); lo += round {
		hi := min(lo+round, len(in.writes))
		st.ops[0] += g * timeGroups(lo, hi, g, rec.cur.inserts, nil, func(i int) { t.insert(in.writes[i]) })
		st.ops[1] += g * timeGroups(lo, hi, g, rec.cur.deletes, nil, func(i int) {
			if !t.remove(in.writes[i]) {
				st.wrong++
			}
		})
	}
	st.slice[0][0] = time.Since(start)
	rec.nInserts, rec.nDeletes = st.ops[0]/g, st.ops[1]/g
	st.work = read().diff(before)
	return st
}

// churnPass replays the interleaved stream (every op timed on its own: a
// sharded insert costs more than 2µs), then the point and kNN streams over
// whatever buffers and tombstones the writes left behind.
func churnPass(t target, read func() counts, in *inputs, exp *expect, rec *recorder, withKNN bool) passStats {
	var st passStats
	before := read()
	s := slicer{dst: &st.slice[0], n: len(in.churn), start: time.Now()}
	for j, op := range in.churn {
		t0 := time.Now()
		var t1 time.Time
		switch op.kind {
		case churnRange:
			n := t.rangeQuery(in.ranges[op.i])
			t1 = time.Now()
			rec.cur.ranges[op.i] = float64(t1.Sub(t0))
			if n != int(exp.ranges[op.i]) {
				st.wrong++
			}
		case churnInsert:
			t.insert(in.writes[op.i])
			t1 = time.Now()
			rec.cur.inserts[op.i] = float64(t1.Sub(t0))
		case churnDelete:
			ok := t.remove(in.writes[op.i])
			t1 = time.Now()
			rec.cur.deletes[op.i] = float64(t1.Sub(t0))
			if !ok {
				st.wrong++
			}
		}
		s.done(j, t1)
	}
	rec.nInserts, rec.nDeletes = len(in.writes), len(in.writes)
	st.ops[0] = len(in.churn)
	st.rangeWork = read().diff(before)
	pointAndKNN(t, in, exp, rec, group, withKNN, &st)
	st.work = read().diff(before)
	return st
}
