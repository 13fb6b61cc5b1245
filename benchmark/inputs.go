package main

import (
	"math/rand"
	"sort"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/shard"
	"github.com/wazi-index/wazi/internal/workload"
	"github.com/wazi-index/wazi/internal/zorder"
)

// fixtureSeed generates the indexed data set and the training workload, the
// same for every run: they stand in for the paper's fixed data files. The
// run's seed draws everything that is asked of the index built over them (the
// range, point and kNN streams, the inserted points, their order). A layout
// that changed with the seed moved space by 4 % and sharded latencies by
// 8-17 % from seed to seed, far more than a rerun moves them, so a bound
// tight enough to catch a regression could not have told one from a reseed.
const fixtureSeed = 1

const (
	region   = dataset.CaliNev
	trainSel = 0.0256e-2 // selectivity of the anticipated (training) workload
	knnK     = 10
	group    = 64 // ops per timed group for sub-2µs operations
)

// sizes are the fixed op counts of one workload. Every pass replays the same
// seed-derived streams, so work counters repeat exactly from pass to pass.
type sizes struct {
	n       int // indexed points
	train   int // training range queries
	ranges  int // range queries per pass (a multiple of 4: one quarter per selectivity)
	lookups int // point lookups per pass (a multiple of group)
	knn     int // kNN queries per pass
	writes  int // inserts, then deletes, per write pass (per interleaved pass under churn)
}

// churnKind tags one op of the interleaved sharded-wal-churn stream.
type churnKind uint8

const (
	churnRange churnKind = iota
	churnInsert
	churnDelete
)

// churnOp is one op of the interleaved stream; i indexes ranges or writes.
type churnOp struct {
	kind churnKind
	i    int32
}

// inputs is everything a run feeds the program: the fixture and the streams
// derived from the seed.
type inputs struct {
	points []wazi.Point
	train  []wazi.Rect
	// fixtureTime is what generating points and train took: the part of
	// making the inputs that set-up time counts (deriving the op streams is
	// the harness's own work).
	fixtureTime time.Duration
	ranges      []wazi.Rect
	class       []uint8 // class[i] is the Table 2 selectivity (0..3) of ranges[i]
	lookups     []wazi.Point
	present     []bool // present[i] reports whether lookups[i] is indexed
	nFound      int    // number of true entries in present
	knn         []wazi.Point
	writes      []wazi.Point
	// churn and tombs are nil except for the interleaved workload: the op
	// stream, and the indexed points deleted before the first pass so that
	// every pass reads over standing tombstones. The last nHot writes belong
	// to the hot shard.
	churn []churnOp
	tombs []wazi.Point
	nHot  int
}

// makeInputs derives the op streams. Range centres are skewed check-ins, or
// Zipfian venues when zipf is set; the four selectivities are the paper's
// Table 2 values in equal quarters, shuffled together.
func makeInputs(sz sizes, zipf, churn bool, seed int64) *inputs {
	t0 := time.Now()
	in := &inputs{
		points: dataset.Generate(region, sz.n, fixtureSeed),
		train:  workload.Skewed(region, sz.train, trainSel, fixtureSeed+1),
	}
	in.fixtureTime = time.Since(t0)
	quarter := sz.ranges / len(workload.Selectivities)
	for c, sel := range workload.Selectivities {
		var qs []wazi.Rect
		if zipf {
			qs = workload.Zipfian(region, quarter, sel, seed+2+int64(c))
		} else {
			qs = workload.Skewed(region, quarter, sel, seed+2+int64(c))
		}
		in.ranges = append(in.ranges, qs...)
		for range qs {
			in.class = append(in.class, uint8(c))
		}
	}
	rng := rand.New(rand.NewSource(seed + 6))
	rng.Shuffle(len(in.ranges), func(i, j int) {
		in.ranges[i], in.ranges[j] = in.ranges[j], in.ranges[i]
		in.class[i], in.class[j] = in.class[j], in.class[i]
	})

	// Point stream: lookups sampled from the data, every 20th replaced by a
	// point that is not indexed.
	indexed := make(map[wazi.Point]struct{}, len(in.points))
	for _, p := range in.points {
		indexed[p] = struct{}{}
	}
	in.lookups = workload.PointQueries(in.points, sz.lookups, seed+3)
	in.present = make([]bool, len(in.lookups))
	for i := range in.lookups {
		if i%20 != 19 {
			in.present[i] = true
			in.nFound++
			continue
		}
		p := in.lookups[i]
		for {
			p.X += 1e-7 * (1 + rng.Float64())
			if _, hit := indexed[p]; !hit {
				break
			}
		}
		in.lookups[i] = p
	}

	// kNN stream: one indexed point from each of sz.knn equal slices of the
	// data in Z-order, shuffled. What a sharded kNN costs depends on where it
	// is asked (0.2-7 ms: every shard answers, and a shard far from the
	// location searches long), so the median over locations drawn freely
	// moved 3.5 % from seed to seed at 400 locations; drawn one per slice,
	// every run covers the data set evenly.
	order, keys := make([]int32, len(in.points)), make([]zorder.Key, len(in.points))
	for i, p := range in.points {
		order[i], keys[i] = int32(i), gridKey(p)
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	in.knn = make([]wazi.Point, sz.knn)
	for i := range in.knn {
		lo, hi := i*len(order)/sz.knn, (i+1)*len(order)/sz.knn
		in.knn[i] = in.points[order[lo+rng.Intn(hi-lo)]]
	}
	rng.Shuffle(len(in.knn), func(i, j int) { in.knn[i], in.knn[j] = in.knn[j], in.knn[i] })

	// Write stream: fresh points from the data distribution; a point already
	// indexed is skipped so that deleting the stream restores the contents.
	fresh := func(n int, seed int64) []wazi.Point {
		var out []wazi.Point
		for _, p := range dataset.Generate(region, n, seed) {
			if _, hit := indexed[p]; !hit {
				indexed[p] = struct{}{}
				out = append(out, p)
			}
		}
		return out
	}
	if !churn {
		in.writes = fresh(sz.writes+16, seed+7)[:sz.writes]
		return in
	}

	// The interleaved workload routes its writes: the shard with the fewest
	// points (the hot shard: its rebuilds are the cheapest, so more passes
	// fit in a run) takes exactly compactThreshold of the inserts, the other
	// shards share the rest. The benchmark computes the same plan NewSharded
	// will, from the same inputs.
	plan := shard.Partition(in.points, in.train, shards)
	byShard := make([][]wazi.Point, shards)
	for _, p := range fresh(8*sz.writes, seed+7) {
		byShard[plan.Locate(p)] = append(byShard[plan.Locate(p)], p)
	}
	hot := 0
	for i := range plan.Groups {
		if len(plan.Groups[i]) < len(plan.Groups[hot]) {
			hot = i
		}
	}
	in.nHot = compactThreshold
	for i, ps := range byShard {
		if i != hot {
			in.writes = append(in.writes, ps...)
		}
	}
	// Cold writes keep the order they were drawn in only within a shard;
	// the shuffle restores a mixed arrival order.
	rng.Shuffle(len(in.writes), func(i, j int) { in.writes[i], in.writes[j] = in.writes[j], in.writes[i] })
	if len(in.writes) < sz.writes-in.nHot || len(byShard[hot]) < in.nHot {
		panic("benchmark: the write distribution gives a shard too few points")
	}
	in.writes = append(in.writes[:sz.writes-in.nHot], byShard[hot][:in.nHot]...)
	in.churn = makeChurn(len(in.ranges), len(in.writes)-in.nHot, in.nHot, rng)
	looked := make(map[wazi.Point]struct{}, len(in.lookups))
	for _, p := range in.lookups {
		looked[p] = struct{}{}
	}
	for i := 0; len(in.tombs) < churnTombs && i < len(in.points); i += len(in.points) / (4 * churnTombs) {
		p := in.points[i]
		if _, hit := looked[p]; !hit && plan.Locate(p) != hot {
			in.tombs = append(in.tombs, p)
		}
	}
	return in
}

// The interleaved workload makes inline shard rebuilds exact instead of
// leaving them to chance. (A first version let every buffer grow as the data
// fell: whether a shard crossed the compaction threshold depended on its
// share of the inserts, rebuilds per pass ranged from 3 to 6 across seeds,
// and ops_per_s and range_p95_us spread 40 %. A second kept every backlog
// below the threshold, so that no end-to-end metric contained a rebuild.)
//
// The hot shard starts a pass with an empty backlog. It takes
// compactThreshold inserts in the first half of the pass, and the last of
// them compacts it (rebuild 1 folds them into the shard's index). Their
// deletes come in the second half as tombstones, and the last of those
// compacts it again (rebuild 2 drops them): two rebuilds per pass, at fixed
// ops, and the shard ends the pass as it began. The other shards hold
// churnTombs standing tombstones between them and their inserts are deleted
// churnLag inserts later, still in the buffer, so a backlog there is at most
// 480 + 513 = 993 and never compacts. Reads run over both kinds of dirt.
const (
	compactThreshold = 1024 // wazi's default; the rebuild count asserts it
	churnTombs       = 480
	churnLag         = 512
)

// makeChurn interleaves nr range queries with the inserts and deletes of
// nCold writes to the cold shards (indices 0..nCold-1 of the write stream)
// and nHot writes to the hot shard (the indices after them). A cold delete
// trails its insert by exactly churnLag inserts; the hot inserts are spread evenly
// over the first half of the stream and the hot deletes over the second, so
// the pass ends with the contents it started with.
func makeChurn(nr, nCold, nHot int, rng *rand.Rand) []churnOp {
	base := make([]churnOp, 0, nr+2*nCold)
	r, ins, del := 0, 0, 0
	for r < nr || del < nCold {
		switch left := (nr - r) + (nCold - ins); {
		case ins-del > churnLag || left == 0:
			// The oldest buffered insert is due (or only deletes remain).
			base = append(base, churnOp{churnDelete, int32(del)})
			del++
		case rng.Intn(left) < nr-r:
			base = append(base, churnOp{churnRange, int32(r)})
			r++
		default:
			base = append(base, churnOp{churnInsert, int32(ins)})
			ins++
		}
	}
	ops := make([]churnOp, 0, len(base)+2*nHot)
	half := len(base) / 2
	hi, hd := 0, 0
	for j, op := range base {
		ops = append(ops, op)
		for ; hi < nHot && (hi+1)*half <= (j+1)*nHot; hi++ {
			ops = append(ops, churnOp{churnInsert, int32(nCold + hi)})
		}
		for ; j >= half && hd < nHot && (hd+1)*(len(base)-half) <= (j+1-half)*nHot; hd++ {
			ops = append(ops, churnOp{churnDelete, int32(nCold + hd)})
		}
	}
	return ops
}
