package bench

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/shard"
	"github.com/wazi-index/wazi/internal/workload"
)

// Experiment constants, pinned (rather than inherited from Config) so the
// test-enforced ratios measure one reproducible deployment shape:
//
//   - repartShards: enough shards that the head-trained plan packs the
//     post-shift hotspot into a couple of big shards and the re-learned
//     plan can split it several ways;
//   - repartLeafSize: small pages make per-shard page-granularity effects
//     visible at smoke scale (the paper's L=256 at 4M–64M points gives
//     thousands of pages per shard; 20k points at L=64 keeps the same
//     pages-per-shard order of magnitude);
//   - repartCachePages: a deliberately tight per-shard block cache — the
//     memory-constrained serving shape where plan/working-set alignment
//     matters most.
const (
	repartShards     = 16
	repartLeafSize   = 64
	repartCachePages = 8
)

// RepartitionExperiment quantifies the online repartitioner under the
// hotspot-shift suite on the disk backend: two identical Sharded instances
// are trained on the first (pre-shift) half of the drifting query stream,
// then both serve the shifted second half; both run their per-shard drift
// rebuilds, but only one may re-learn the partition plan and migrate live
// (gated by its own advisor, exercising the closed loop end to end).
//
// The headline, test-enforced metric is the cross-shard PAGE-WORK
// IMBALANCE over the post-shift tail (max/mean pages scanned per populated
// shard, see shard.Imbalance): the static plan funnels the shifted hotspot
// into one or two big shards while their neighbors idle — the failure mode
// online repartitioning exists to fix — and the migrated plan must cut
// that imbalance by >= 1.3x. Page-work imbalance is deterministic (pure
// counter arithmetic, no clocks) and is the tail-latency driver of the
// deployment this repository targets, many clients each on their own
// goroutine: a query costs the pages its shards scan, so p95 follows the
// busiest shard. Wall-clock per-query latencies are reported alongside
// (median-of-reps per query, then percentiles across queries); on a
// single-core CI container the gap still shows as a consistent (if
// smaller) win via cache residency.
func RepartitionExperiment(cfg Config) []Table {
	cfg.fill()
	r := cfg.Regions[0]
	data := dataset.Generate(r, cfg.Scale, cfg.Seed)
	qs := workload.HotspotShift(r, cfg.Queries*2, MidSelectivity, cfg.Seed+71)
	head, tail := qs[:len(qs)/2], qs[len(qs)/2:]

	build := func() (*wazi.Sharded, string) {
		dir, err := os.MkdirTemp("", "wazi-bench-repart")
		if err != nil {
			panic(err)
		}
		s, err := wazi.NewSharded(data, head,
			wazi.WithShards(repartShards),
			wazi.WithIndexOptions(wazi.WithLeafSize(repartLeafSize), wazi.WithSeed(cfg.Seed)),
			wazi.WithoutAutoRebuild(), // adaptation is driven explicitly below, for determinism
			wazi.WithShardedStorage(dir, repartCachePages),
			// Scale the advisor's sample floor to the stream so smoke-sized
			// runs still reach a judgment.
			wazi.WithRepartitionMinLoad(len(tail)/2))
		if err != nil {
			panic(err)
		}
		return s, dir
	}
	static, sdir := build()
	defer os.RemoveAll(sdir)
	defer static.Close()
	adaptive, adir := build()
	defer os.RemoveAll(adir)
	defer adaptive.Close()

	// Serve the drifted tail — three replays, modelling a SUSTAINED shift
	// rather than a transient: the sampled recent-query rings and drift
	// windows fill, and the cross-shard load counters accumulate,
	// identically on both instances.
	for pass := 0; pass < 3; pass++ {
		for _, q := range tail {
			static.RangeQuery(q)
			adaptive.RangeQuery(q)
		}
	}
	// Both contenders adapt their shard INTERNALS (drift rebuilds where the
	// per-shard advisors recommend); only adaptive may re-learn the global
	// plan — and only if ITS advisor (load imbalance or plan drift) says so.
	staticRebuilds := static.CheckRebuilds()
	adaptiveRebuilds := adaptive.CheckRebuilds()
	migrated := adaptive.CheckRepartition()

	// Deterministic work pass: per-shard pages scanned over one tail replay.
	sWork, sPages := tailPageWork(static, tail)
	aWork, aPages := tailPageWork(adaptive, tail)
	sImb := shard.Imbalance(sWork)
	aImb := shard.Imbalance(aWork)

	// Wall-clock pass: median of repartLatencyReps samples per query kills
	// scheduler spikes while keeping recurring page-fault costs.
	sp50, sp95 := tailLatency(static, tail)
	ap50, ap95 := tailLatency(adaptive, tail)

	hot := hotRegion(r)
	lat := Table{
		ID: "repartition",
		Title: fmt.Sprintf("Post-shift tail: static plan vs online repartitioning (%s, %d points, %d shards, L=%d, cache %d pages/shard, GOMAXPROCS=%d)",
			r, cfg.Scale, repartShards, repartLeafSize, repartCachePages, runtime.GOMAXPROCS(0)),
		Header: []string{"Plan", "p50 (ns)", "p95 (ns)", "pages/query", "page-work imbalance", "drift rebuilds", "migrations", "hot shards"},
		Notes: []string{
			"hotspot-shift tail at the paper's mid selectivity; both plans trained on the pre-shift head, disk-backed",
			"page-work imbalance: max/mean pages scanned per populated shard over the tail (1 = balanced)",
			"hot shards: shards dedicated to (bounds inside) the post-shift hotspot region",
			"expected shape: the static plan burns most pages in one or two shards; the migrated plan spreads them",
		},
		Rows: [][]string{
			{"static", ns(sp50), ns(sp95), fmt.Sprintf("%.1f", float64(sPages)/float64(len(tail))),
				fmt.Sprintf("%.2f", sImb), fmt.Sprintf("%d", staticRebuilds), "0",
				fmt.Sprintf("%d", containedShards(static, hot))},
			{"adaptive", ns(ap50), ns(ap95), fmt.Sprintf("%.1f", float64(aPages)/float64(len(tail))),
				fmt.Sprintf("%.2f", aImb), fmt.Sprintf("%d", adaptiveRebuilds),
				fmt.Sprintf("%d", adaptive.Repartitions()),
				fmt.Sprintf("%d", containedShards(adaptive, hot))},
		},
	}
	ratio := Table{
		ID:     "repartition",
		Title:  "Repartitioning gain under hotspot-shift (imbalance target >= 1.3x, test-enforced)",
		Header: []string{"Suite", "static imbalance", "adaptive imbalance", "imbalance ratio", "p95 ratio", "migrated"},
		Rows: [][]string{{
			"hotspot-shift",
			fmt.Sprintf("%.2f", sImb),
			fmt.Sprintf("%.2f", aImb),
			fmt.Sprintf("%.2fx", sImb/aImb),
			fmt.Sprintf("%.2fx", float64(sp95)/float64(max(ap95, 1))),
			fmt.Sprintf("%v", migrated),
		}},
		Notes: []string{
			"imbalance ratio is deterministic (counter arithmetic) and is what p95 follows: a query costs the pages its shards scan",
			"expected shape: imbalance ratio >= 1.3x with migrated=true; p95 ratio >= 1x even on one core (cache residency)",
		},
	}
	return []Table{lat, ratio}
}

// repartLatencyReps is how many timing samples each tail query gets; the
// per-query median is robust to scheduler spikes without hiding recurring
// page-fault costs (a thrashing working set faults on every rep).
const repartLatencyReps = 5

// tailPageWork replays the tail once and returns each populated shard's
// pages-scanned delta plus the total.
func tailPageWork(s *wazi.Sharded, tail []geom.Rect) ([]float64, int64) {
	before := map[int]int64{}
	for i, info := range s.Shards() {
		before[i] = info.PagesScanned
	}
	for _, q := range tail {
		s.RangeQuery(q)
	}
	var work []float64
	var total int64
	for i, info := range s.Shards() {
		d := info.PagesScanned - before[i]
		total += d
		if info.Points > 0 {
			work = append(work, float64(d))
		}
	}
	return work, total
}

// tailLatency times each tail query repartLatencyReps times and returns the
// p50/p95 of the per-query medians.
func tailLatency(s *wazi.Sharded, tail []geom.Rect) (p50, p95 time.Duration) {
	samples := make([][]time.Duration, len(tail))
	for rep := 0; rep < repartLatencyReps; rep++ {
		for i, q := range tail {
			start := time.Now()
			s.RangeQuery(q)
			samples[i] = append(samples[i], time.Since(start))
		}
	}
	meds := make([]time.Duration, len(tail))
	for i, c := range samples {
		sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
		meds[i] = c[len(c)/2]
	}
	sort.Slice(meds, func(i, j int) bool { return meds[i] < meds[j] })
	return meds[len(meds)/2], meds[len(meds)*95/100]
}

// hotRegion bounds the post-shift hotspot: hotspot-shift's tail reverses
// the popularity ranking, so the drifted traffic concentrates around the
// region's formerly-least-popular venue.
func hotRegion(r dataset.Region) geom.Rect {
	hs := dataset.Hotspots(r)
	c := hs[len(hs)-1]
	const rad = 0.14 // the tail's per-venue jitter (sigma 0.04) plus query extent
	return geom.Rect{MinX: c.X - rad, MinY: c.Y - rad, MaxX: c.X + rad, MaxY: c.Y + rad}
}

// containedShards counts non-empty shards whose bounds lie inside region —
// shards the plan dedicates to it.
func containedShards(s *wazi.Sharded, region geom.Rect) int {
	n := 0
	for _, info := range s.Shards() {
		b := info.Bounds
		if info.Points > 0 &&
			b.MinX >= region.MinX && b.MinY >= region.MinY &&
			b.MaxX <= region.MaxX && b.MaxY <= region.MaxY {
			n++
		}
	}
	return n
}
