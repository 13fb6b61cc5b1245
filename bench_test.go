package wazi_test

// Benchmark harness: one testing.B benchmark (family) per table and figure
// of the paper's evaluation section. Each sub-benchmark reports the
// quantity the corresponding artifact plots — range-query ns/op for the
// latency figures, build seconds for Table 3, counter metrics for the
// Figure 13 ablation — at a scaled-down dataset size. cmd/waziexp runs the
// same experiments over all four regions and prints the full tables;
// EXPERIMENTS.md records paper-vs-measured shapes.
//
// Run with:
//
//	go test -bench=. -benchmem .

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/bench"
	"github.com/wazi-index/wazi/internal/core"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/density"
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/index"
	"github.com/wazi-index/wazi/internal/workload"
)

// benchScale keeps the full `go test -bench=.` run in laptop territory.
// The shapes survive down-scaling; see DESIGN.md §2.
const benchScale = 25_000

var benchCfg = bench.Config{
	Scale:        benchScale,
	Queries:      800,
	PointQueries: 2_000,
	LeafSize:     256,
	Seed:         1,
	Regions:      []dataset.Region{dataset.NewYork},
}

// benchEnv caches datasets, workloads, and built indexes across the
// benchmark calibration reruns that the testing framework performs.
type benchEnv struct {
	mu        sync.Mutex
	workloads map[string]bench.Workloads
	indexes   map[string]bench.BuildResult
}

var env = &benchEnv{
	workloads: map[string]bench.Workloads{},
	indexes:   map[string]bench.BuildResult{},
}

func (e *benchEnv) workload(size int) bench.Workloads {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := fmt.Sprintf("ny-%d", size)
	w, ok := e.workloads[key]
	if !ok {
		w = bench.MakeWorkloads(dataset.NewYork, size, benchCfg)
		e.workloads[key] = w
	}
	return w
}

func (e *benchEnv) index(name string, size int, sel float64) (bench.BuildResult, []geom.Rect) {
	w := e.workload(size)
	qs := w.BySelectivity[sel]
	half := len(qs) / 2
	e.mu.Lock()
	defer e.mu.Unlock()
	key := fmt.Sprintf("%s-%d-%g", name, size, sel)
	br, ok := e.indexes[key]
	if !ok {
		br = bench.BuildIndex(name, w.Data, qs[:half], benchCfg)
		e.indexes[key] = br
	}
	return br, qs[half:]
}

func benchRange(b *testing.B, idx index.Index, qs []geom.Rect) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.RangeQuery(qs[i%len(qs)])
	}
}

// BenchmarkFig4RangeAllIndexes regenerates Figure 4: average range-query
// latency of all eleven indexes at the mid selectivity.
func BenchmarkFig4RangeAllIndexes(b *testing.B) {
	for _, name := range bench.AllIndexes {
		b.Run(name, func(b *testing.B) {
			br, qs := env.index(name, benchScale, bench.MidSelectivity)
			benchRange(b, br.Index, qs)
		})
	}
}

// BenchmarkFig6RangeBySelectivity regenerates Figure 6: the six main
// indexes across the four Table 2 selectivities.
func BenchmarkFig6RangeBySelectivity(b *testing.B) {
	for _, sel := range workload.Selectivities {
		for _, name := range bench.MainIndexes {
			b.Run(fmt.Sprintf("sel=%.4f%%/%s", sel*100, name), func(b *testing.B) {
				br, qs := env.index(name, benchScale, sel)
				benchRange(b, br.Index, qs)
			})
		}
	}
}

// BenchmarkFig7ImprovementOverBase regenerates Figure 7's inputs: Base and
// WaZI at every selectivity; the improvement percentages fall out of the
// ns/op ratios.
func BenchmarkFig7ImprovementOverBase(b *testing.B) {
	for _, sel := range workload.Selectivities {
		for _, name := range []string{"Base", "WaZI"} {
			b.Run(fmt.Sprintf("sel=%.4f%%/%s", sel*100, name), func(b *testing.B) {
				br, qs := env.index(name, benchScale, sel)
				benchRange(b, br.Index, qs)
			})
		}
	}
}

// BenchmarkFig8RangeByDatasetSize regenerates Figure 8: range latency at
// the mid selectivity across the size ladder.
func BenchmarkFig8RangeByDatasetSize(b *testing.B) {
	for _, size := range []int{benchScale / 4, benchScale, benchScale * 4} {
		for _, name := range bench.MainIndexes {
			b.Run(fmt.Sprintf("n=%d/%s", size, name), func(b *testing.B) {
				br, qs := env.index(name, size, bench.MidSelectivity)
				benchRange(b, br.Index, qs)
			})
		}
	}
}

// BenchmarkFig9ProjectionScan regenerates Figure 9: the projection/scan
// split, reported as custom metrics alongside the total ns/op.
func BenchmarkFig9ProjectionScan(b *testing.B) {
	for _, name := range bench.MainIndexes {
		b.Run(name, func(b *testing.B) {
			br, qs := env.index(name, benchScale, bench.MidSelectivity)
			ph, ok := br.Index.(bench.Phased)
			if !ok {
				b.Skipf("%s has no phased query path", name)
			}
			var proj, scan time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, p, s := ph.RangeQueryPhased(qs[i%len(qs)])
				proj += p
				scan += s
			}
			b.ReportMetric(float64(proj.Nanoseconds())/float64(b.N), "proj-ns/op")
			b.ReportMetric(float64(scan.Nanoseconds())/float64(b.N), "scan-ns/op")
		})
	}
}

// BenchmarkFig10PointQuery regenerates Figure 10: point-query latency
// across the size ladder.
func BenchmarkFig10PointQuery(b *testing.B) {
	for _, size := range []int{benchScale / 4, benchScale, benchScale * 4} {
		for _, name := range bench.MainIndexes {
			b.Run(fmt.Sprintf("n=%d/%s", size, name), func(b *testing.B) {
				br, _ := env.index(name, size, bench.MidSelectivity)
				pq := env.workload(size).Points
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = br.Index.PointQuery(pq[i%len(pq)])
				}
			})
		}
	}
}

// BenchmarkTab3Build regenerates Table 3: construction time per index. Each
// iteration builds the index from scratch.
func BenchmarkTab3Build(b *testing.B) {
	w := env.workload(benchScale)
	qs := w.BySelectivity[bench.MidSelectivity]
	half := len(qs) / 2
	for _, name := range []string{"Base", "CUR", "Flood", "QUASII", "STR", "WaZI"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = bench.BuildIndex(name, w.Data, qs[:half], benchCfg)
			}
		})
	}
}

// BenchmarkTab5IndexSize regenerates Table 5's measurement: index footprint
// reported as a custom bytes metric (one build per run).
func BenchmarkTab5IndexSize(b *testing.B) {
	for _, name := range []string{"Base", "CUR", "Flood", "QUASII", "STR", "WaZI"} {
		b.Run(name, func(b *testing.B) {
			br, qs := env.index(name, benchScale, bench.MidSelectivity)
			benchRange(b, br.Index, qs)
			b.ReportMetric(float64(br.Index.Bytes()), "index-bytes")
		})
	}
}

// BenchmarkFig11Insert regenerates Figure 11 left: insert latency for the
// updatable indexes. Fresh indexes are built outside the timed loop;
// inserts stream uniform points.
func BenchmarkFig11Insert(b *testing.B) {
	w := env.workload(benchScale)
	qs := w.BySelectivity[bench.MidSelectivity]
	half := len(qs) / 2
	for _, name := range []string{"WaZI", "CUR", "Flood"} {
		b.Run(name, func(b *testing.B) {
			idx := bench.BuildIndex(name, w.Data, qs[:half], benchCfg).Index.(index.Updatable)
			inserts := workload.InsertBatch(200_000, 99)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Insert(inserts[i%len(inserts)])
			}
		})
	}
}

// BenchmarkFig12Drift regenerates Figure 12: Base and WaZI range latency
// under 0%, 50%, and 100% skewed workload change.
func BenchmarkFig12Drift(b *testing.B) {
	w := env.workload(benchScale)
	qs := w.BySelectivity[bench.MidSelectivity]
	half := len(qs) / 2
	drifted := workload.Skewed(dataset.Iberia, len(qs)-half, bench.MidSelectivity, 77)
	for _, chg := range []float64{0, 0.5, 1.0} {
		mixed := workload.Mix(qs[half:], drifted, chg, 78)
		for _, name := range []string{"Base", "WaZI"} {
			b.Run(fmt.Sprintf("change=%.0f%%/%s", chg*100, name), func(b *testing.B) {
				br, _ := env.index(name, benchScale, bench.MidSelectivity)
				benchRange(b, br.Index, mixed)
			})
		}
	}
}

// BenchmarkFig13Ablation regenerates Figure 13: the four construction
// variants at the three ablation selectivities, with the per-query counter
// metrics (excess points, bbs checked, pages scanned) reported alongside
// latency.
func BenchmarkFig13Ablation(b *testing.B) {
	for _, sel := range workload.AblationSelectivities {
		for _, name := range []string{"Base", "WaZI", "Base+SK", "WaZI-SK"} {
			b.Run(fmt.Sprintf("sel=%.4f%%/%s", sel*100, name), func(b *testing.B) {
				br, qs := env.index(name, benchScale, sel)
				z := br.Index.(*core.ZIndex)
				before := *z.Stats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = z.RangeQuery(qs[i%len(qs)])
				}
				b.StopTimer()
				d := z.Stats().Diff(before)
				n := float64(b.N)
				b.ReportMetric(float64(d.ExcessPoints())/n, "excess-points/op")
				b.ReportMetric(float64(d.BBChecked)/n, "bbs-checked/op")
				b.ReportMetric(float64(d.PagesScanned)/n, "pages-scanned/op")
			})
		}
	}
}

// ---- Ablation benches for the design choices called out in DESIGN.md ----

// BenchmarkAblationAlpha sweeps the skip discount α of the cost model.
func BenchmarkAblationAlpha(b *testing.B) {
	w := env.workload(benchScale)
	qs := w.BySelectivity[bench.MidSelectivity]
	half := len(qs) / 2
	for _, alpha := range []float64{1e-5, 1e-3, 0.1, 0.5} {
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			z, err := core.BuildWaZI(w.Data, qs[:half], core.Options{
				LeafSize: benchCfg.LeafSize, Seed: 1, Alpha: alpha,
			})
			if err != nil {
				b.Fatal(err)
			}
			benchRange(b, z, qs[half:])
		})
	}
}

// BenchmarkAblationKappa sweeps the candidate-split sample count κ,
// reporting build time as a metric next to query latency.
func BenchmarkAblationKappa(b *testing.B) {
	w := env.workload(benchScale)
	qs := w.BySelectivity[bench.MidSelectivity]
	half := len(qs) / 2
	for _, kappa := range []int{4, 16, 32, 64} {
		b.Run(fmt.Sprintf("kappa=%d", kappa), func(b *testing.B) {
			start := time.Now()
			z, err := core.BuildWaZI(w.Data, qs[:half], core.Options{
				LeafSize: benchCfg.LeafSize, Seed: 1, Kappa: kappa,
			})
			if err != nil {
				b.Fatal(err)
			}
			build := time.Since(start)
			benchRange(b, z, qs[half:])
			b.ReportMetric(build.Seconds(), "build-sec")
		})
	}
}

// BenchmarkAblationEstimator compares RFDE-driven construction against
// exact counting.
func BenchmarkAblationEstimator(b *testing.B) {
	w := env.workload(benchScale)
	qs := w.BySelectivity[bench.MidSelectivity]
	half := len(qs) / 2
	for _, exact := range []bool{false, true} {
		name := "rfde"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			start := time.Now()
			z, err := core.BuildWaZI(w.Data, qs[:half], core.Options{
				LeafSize: benchCfg.LeafSize, Seed: 1, ExactCounts: exact,
			})
			if err != nil {
				b.Fatal(err)
			}
			build := time.Since(start)
			benchRange(b, z, qs[half:])
			b.ReportMetric(build.Seconds(), "build-sec")
		})
	}
}

// BenchmarkForestBuild times the RFDE forest alone, the model training step
// of BuildWaZI, at the default forest options over the benchmark's fixture.
func BenchmarkForestBuild(b *testing.B) {
	pts, _ := workload.BenchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forestSink = density.NewForest(pts, density.DefaultOptions())
	}
}

var forestSink *density.Forest

// BenchmarkBuildWaZI times the whole workload-aware build (forest plus
// greedy descent) at default options: what setup_s and every shard rebuild
// pay.
func BenchmarkBuildWaZI(b *testing.B) {
	pts, train := workload.BenchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildWaZI(pts, train, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardCompaction times one compaction of the fixture's smallest
// 4-way shard after 1 024 buffered inserts: a fold of the delta into a copy
// of the shard's index, which sharded-wal-churn pays twice a pass.
func BenchmarkShardCompaction(b *testing.B) {
	pts, train := workload.BenchFixture()
	s, err := wazi.NewSharded(pts, train, wazi.WithShards(4), wazi.WithCompactThreshold(math.MaxInt32),
		wazi.WithoutAutoRebuild(), wazi.WithoutAutoRepartition())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	shards, small := s.Shards(), 0
	for i, sh := range shards {
		if sh.Points < shards[small].Points {
			small = i
		}
	}
	var fresh []geom.Point
	for _, p := range dataset.Generate(dataset.CaliNev, 32_000, 7) {
		if s.ShardOf(p) == small {
			fresh = append(fresh, p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range 1024 {
			s.Insert(fresh[(i*1024+j)%len(fresh)])
		}
		b.StartTimer()
		if !s.RebuildShard(small) {
			b.Fatal("the compaction did not swap")
		}
	}
}

// BenchmarkAblationOrdering isolates the contribution of the acbd ordering
// freedom (§4.1) from split-point freedom.
func BenchmarkAblationOrdering(b *testing.B) {
	w := env.workload(benchScale)
	qs := w.BySelectivity[bench.MidSelectivity]
	half := len(qs) / 2
	for _, abcdOnly := range []bool{false, true} {
		name := "abcd+acbd"
		if abcdOnly {
			name = "abcd-only"
		}
		b.Run(name, func(b *testing.B) {
			z, err := core.BuildWaZI(w.Data, qs[:half], core.Options{
				LeafSize: benchCfg.LeafSize, Seed: 1, OrderABCDOnly: abcdOnly,
			})
			if err != nil {
				b.Fatal(err)
			}
			benchRange(b, z, qs[half:])
		})
	}
}

// BenchmarkAblationLeafSize sweeps the page capacity L.
func BenchmarkAblationLeafSize(b *testing.B) {
	w := env.workload(benchScale)
	qs := w.BySelectivity[bench.MidSelectivity]
	half := len(qs) / 2
	for _, leaf := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("L=%d", leaf), func(b *testing.B) {
			z, err := core.BuildWaZI(w.Data, qs[:half], core.Options{
				LeafSize: leaf, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			benchRange(b, z, qs[half:])
		})
	}
}

// BenchmarkKNN exercises the kNN-by-range-decomposition path (§6.3 remark).
func BenchmarkKNN(b *testing.B) {
	br, _ := env.index("WaZI", benchScale, bench.MidSelectivity)
	z := br.Index.(*core.ZIndex)
	pq := env.workload(benchScale).Points
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = z.KNN(pq[i%len(pq)], k)
			}
		})
	}
}

// BenchmarkShardedFanout prices one Sharded.RangeQueryAppend by how many
// shards it fans out to, over wazibench's fixture and shard count. Skewed
// queries of each Table 2 selectivity — plus 1.64 % and 6.55 %, 16× and 64×
// the paper's largest, where a parallel fan-out would have had the most to
// harvest — are bucketed by the width a probing RangeCount reports, so every
// cell scans one known number of shards. docs/SERVING.md ("Fan-out") holds
// the table this produced for the worker pool against the loop that
// replaced it; run with -cpu 1,2 to repeat it.
func BenchmarkShardedFanout(b *testing.B) {
	pts, train := workload.BenchFixture()
	s, err := wazi.NewSharded(pts, train, wazi.WithShards(4),
		wazi.WithoutAutoRebuild(), wazi.WithoutAutoRepartition())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	widthNames := []string{"1", "2", "3+"}
	width := s.Obs().FanoutWidth
	for _, sel := range append(append([]float64{}, workload.Selectivities...), 1.64e-2, 6.55e-2) {
		var buckets [3][]geom.Rect
		for _, q := range workload.Skewed(dataset.CaliNev, 2_000, sel, 3) {
			before := width.Sum()
			s.RangeCount(q)
			if w := int(width.Sum() - before); w >= 1 {
				bk := &buckets[min(w, 3)-1]
				*bk = append(*bk, q)
			}
		}
		for wi, qs := range buckets {
			b.Run(fmt.Sprintf("sel=%.4f%%/width=%s", sel*100, widthNames[wi]), func(b *testing.B) {
				if len(qs) < 8 {
					b.Skipf("%d queries of this width", len(qs))
				}
				// One untimed pass sizes dst, fills the arena and scratch
				// pools, and counts the answers.
				var dst []geom.Point
				points := 0
				for _, q := range qs {
					dst = s.RangeQueryAppend(dst[:0], q)
					points += len(dst)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = s.RangeQueryAppend(dst[:0], qs[i%len(qs)])
				}
				b.ReportMetric(float64(points)/float64(len(qs)), "points/answer")
			})
		}
	}
}
