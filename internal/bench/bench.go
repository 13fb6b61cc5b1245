// Package bench is the experiment engine that regenerates every table and
// figure of the paper's evaluation section (§6) on the synthetic region
// datasets, plus two serving-layer experiments this repository adds
// (HTTP serving and online repartitioning). Each experiment is a function
// from a Config to one or more Tables; cmd/waziexp runs them under
// internal/bench/harness (warmup, repetitions, summary statistics, JSON
// reports), bench_test.go wraps them in testing.B benchmarks, and Suites
// groups them into named runs (paper, serving, full). The serving stack's
// performance is measured by the benchmark (./benchmark), not here.
//
// Scale note: the paper runs 4–64 million points and 20,000 queries on a
// C++ testbed. The defaults here are scaled down (see Config) so the full
// suite completes in minutes on a laptop; every comparison the paper makes
// is relative (which index wins, by what factor, where crossovers fall),
// and those shapes are what EXPERIMENTS.md records.
package bench

import (
	"fmt"
	"sort"
	"time"

	"github.com/wazi-index/wazi/internal/baselines/cur"
	"github.com/wazi-index/wazi/internal/baselines/flood"
	"github.com/wazi-index/wazi/internal/baselines/hrr"
	"github.com/wazi-index/wazi/internal/baselines/qdgr"
	"github.com/wazi-index/wazi/internal/baselines/quasii"
	"github.com/wazi-index/wazi/internal/baselines/quilts"
	"github.com/wazi-index/wazi/internal/baselines/rsmi"
	"github.com/wazi-index/wazi/internal/baselines/str"
	"github.com/wazi-index/wazi/internal/baselines/zpgm"
	"github.com/wazi-index/wazi/internal/bench/harness"
	"github.com/wazi-index/wazi/internal/core"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/index"
	"github.com/wazi-index/wazi/internal/workload"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale is the default dataset size per region. The paper's default is
	// 32 million; ours defaults to 100,000 (ratio-preserving ladders hang
	// off this value).
	Scale int
	// Queries is the range-query workload size (paper: 20,000).
	Queries int
	// PointQueries is the point-query workload size (paper: 50,000).
	PointQueries int
	// LeafSize is the page capacity L (paper: 256).
	LeafSize int
	// Seed drives all data, workload, and construction randomness.
	Seed int64
	// Regions selects the datasets; nil means all four.
	Regions []dataset.Region
}

// Filled returns a copy of c with package defaults applied to every unset
// field, so the effective configuration can be recorded (e.g. in a
// harness report) exactly as the experiments will see it.
func (c Config) Filled() Config {
	c.fill()
	return c
}

func (c *Config) fill() {
	if c.Scale <= 0 {
		c.Scale = 100_000
	}
	if c.Queries <= 0 {
		c.Queries = 2_000
	}
	if c.PointQueries <= 0 {
		c.PointQueries = 5_000
	}
	if c.LeafSize <= 0 {
		c.LeafSize = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Regions) == 0 {
		c.Regions = dataset.Regions()
	}
}

// SizeLadder mirrors the paper's [4, 8, 16, 32, 64] million ladder around
// Scale: Scale×{1/8, 1/4, 1/2, 1, 2}, labelled by their absolute size.
func (c Config) SizeLadder() []int {
	return []int{c.Scale / 8, c.Scale / 4, c.Scale / 2, c.Scale, c.Scale * 2}
}

// MainIndexes is the paper's six-index lineup used in Figures 6–12.
var MainIndexes = []string{"QUASII", "CUR", "STR", "Flood", "Base", "WaZI"}

// AllIndexes is the eleven-index lineup of Figure 4.
var AllIndexes = []string{
	"Base", "CUR", "Flood", "HRR", "QD-Gr", "QUASII", "QUILTS", "RSMI", "STR", "WaZI", "Zpgm",
}

// BuildResult couples a built index with its construction time.
type BuildResult struct {
	Index index.Index
	Build time.Duration
}

// BuildIndex constructs one index by name over data with the anticipated
// workload.
func BuildIndex(name string, pts []geom.Point, queries []geom.Rect, cfg Config) BuildResult {
	cfg.fill()
	start := time.Now()
	var idx index.Index
	switch name {
	case "Base":
		z, err := core.BuildBase(pts, core.Options{LeafSize: cfg.LeafSize, DisableSkipping: true, Seed: cfg.Seed})
		if err != nil {
			panic(err)
		}
		idx = z
	case "Base+SK":
		z, err := core.BuildBase(pts, core.Options{LeafSize: cfg.LeafSize, Seed: cfg.Seed})
		if err != nil {
			panic(err)
		}
		idx = z
	case "WaZI":
		z, err := core.BuildWaZI(pts, queries, core.Options{LeafSize: cfg.LeafSize, Seed: cfg.Seed})
		if err != nil {
			panic(err)
		}
		idx = z
	case "WaZI-SK":
		z, err := core.BuildWaZI(pts, queries, core.Options{LeafSize: cfg.LeafSize, DisableSkipping: true, Seed: cfg.Seed})
		if err != nil {
			panic(err)
		}
		idx = z
	case "STR":
		idx = str.Build(pts, str.Options{LeafSize: cfg.LeafSize})
	case "CUR":
		idx = cur.Build(pts, queries, cur.Options{LeafSize: cfg.LeafSize})
	case "Flood":
		idx = flood.Build(pts, flood.Options{SampleQueries: queries})
	case "QUASII":
		idx = quasii.Build(pts, queries)
	case "Zpgm":
		idx = zpgm.Build(pts, 0)
	case "HRR":
		idx = hrr.Build(pts, hrr.Options{LeafSize: cfg.LeafSize})
	case "QD-Gr":
		idx = qdgr.Build(pts, queries, qdgr.Options{MinBlock: cfg.LeafSize})
	case "QUILTS":
		idx = quilts.Build(pts, queries)
	case "RSMI":
		idx = rsmi.Build(pts, 0)
	default:
		panic("bench: unknown index " + name)
	}
	return BuildResult{Index: idx, Build: time.Since(start)}
}

// Workloads bundles one region's experiment inputs.
type Workloads struct {
	Region dataset.Region
	Data   []geom.Point
	// BySelectivity maps each Table 2 selectivity to a skewed workload.
	BySelectivity map[float64][]geom.Rect
	// Points are the point queries sampled from the data.
	Points []geom.Point
}

// MakeWorkloads generates a region's data and workloads at a given size.
func MakeWorkloads(r dataset.Region, size int, cfg Config) Workloads {
	cfg.fill()
	w := Workloads{
		Region:        r,
		Data:          dataset.Generate(r, size, cfg.Seed),
		BySelectivity: map[float64][]geom.Rect{},
	}
	sels := append(append([]float64{}, workload.Selectivities...), workload.AblationSelectivities...)
	for _, sel := range sels {
		if _, ok := w.BySelectivity[sel]; !ok {
			w.BySelectivity[sel] = workload.Skewed(r, cfg.Queries, sel, cfg.Seed+int64(sel*1e9))
		}
	}
	w.Points = workload.PointQueries(w.Data, cfg.PointQueries, cfg.Seed+7)
	return w
}

// MidSelectivity is the headline selectivity used by Figures 4, 8, 9.
const MidSelectivity = 0.0256e-2

// measureRepeats controls latency measurement: one untimed warmup pass,
// then the minimum over this many timed passes. The minimum is the
// standard noise-robust estimator for microbenchmark latency — scheduler
// preemption, noisy neighbours, and GC only ever add time, never remove
// it. Counter-based metrics (points scanned, bounding boxes checked) are
// reported alongside latency in the experiment tables as the
// deterministic, machine-independent reproduction evidence.
const measureRepeats = 5

// MeasureRange returns the best-of-N average range-query latency of idx
// over queries, after a warmup pass.
func MeasureRange(idx index.Index, queries []geom.Rect) time.Duration {
	if len(queries) == 0 {
		return 0
	}
	for _, r := range queries {
		_ = idx.RangeQuery(r)
	}
	best := time.Duration(0)
	for t := 0; t < measureRepeats; t++ {
		start := time.Now()
		for _, r := range queries {
			_ = idx.RangeQuery(r)
		}
		if d := time.Since(start) / time.Duration(len(queries)); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// MeasurePoint returns the best-of-N average point-query latency, after a
// warmup pass.
func MeasurePoint(idx index.Index, pts []geom.Point) time.Duration {
	if len(pts) == 0 {
		return 0
	}
	for _, p := range pts {
		_ = idx.PointQuery(p)
	}
	best := time.Duration(0)
	for t := 0; t < measureRepeats; t++ {
		start := time.Now()
		for _, p := range pts {
			_ = idx.PointQuery(p)
		}
		if d := time.Since(start) / time.Duration(len(pts)); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// Phased is implemented by indexes that can split a range query into
// projection and scan phases (Figure 9).
type Phased interface {
	RangeQueryPhased(r geom.Rect) (pts []geom.Point, projection, scan time.Duration)
}

// MeasurePhases returns the average projection and scan durations.
func MeasurePhases(idx Phased, queries []geom.Rect) (projection, scan time.Duration) {
	if len(queries) == 0 {
		return 0, 0
	}
	for _, r := range queries {
		_, p, s := idx.RangeQueryPhased(r)
		projection += p
		scan += s
	}
	n := time.Duration(len(queries))
	return projection / n, scan / n
}

// Table is a rendered experiment result. It is the harness's table type:
// experiments produce Tables, the harness renders them as text, mines
// their numeric cells into metrics, and serializes them into BENCH_*.json
// reports.
type Table = harness.Table

// ns formats a duration as integer nanoseconds.
func ns(d time.Duration) string { return fmt.Sprintf("%d", d.Nanoseconds()) }

// mb formats bytes as megabytes with two decimals.
func mb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

// pct formats a percentage with one decimal.
func pct(v float64) string { return fmt.Sprintf("%+.1f%%", v) }

// selLabel formats a selectivity fraction as the paper's percent notation.
func selLabel(sel float64) string { return fmt.Sprintf("%.4f%%", sel*100) }

// sortedSelectivities returns the Table 2 selectivities in ascending order.
func sortedSelectivities() []float64 {
	out := append([]float64{}, workload.Selectivities...)
	sort.Float64s(out)
	return out
}
