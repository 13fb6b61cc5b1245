// Package workload generates the semi-synthetic range-query workloads of
// §6.2: query centers are drawn from a skewed "check-in" distribution
// (modelled after the paper's Gowalla extracts, which concentrate on popular
// locations rather than following the POI density), and each query rectangle
// grows around its center until it covers a target fraction of the data
// space — the paper's definition of selectivity ("we represent selectivity
// as a percentage of data space").
//
// It also provides the workload transformations used in the drift
// experiment (Figure 12): uniform replacement and replacement by another
// region's skewed workload.
package workload

import (
	"math"
	"math/rand"

	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/geom"
)

// UnitSquare is the data domain shared by all generated datasets.
var UnitSquare = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}

// Selectivities lists the paper's query selectivities (Table 2) as
// fractions of the data-space area: 0.0016%, 0.0064%, 0.0256%, 0.1024%.
var Selectivities = []float64{0.0016e-2, 0.0064e-2, 0.0256e-2, 0.1024e-2}

// AblationSelectivities are the Figure 13 selectivities: 0.0004%, 0.0064%,
// 0.1024%.
var AblationSelectivities = []float64{0.0004e-2, 0.0064e-2, 0.1024e-2}

// Checkins draws n check-in locations for a region: a mixture over the
// region's hotspots with tight spread, so the query distribution is skewed
// differently from the data distribution. Deterministic in seed.
func Checkins(r dataset.Region, n int, seed int64) []geom.Point {
	hotspots := dataset.Hotspots(r)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	// Zipf-ish weights: first hotspot dominates, mimicking check-in
	// concentration on a few popular venues.
	weights := make([]float64, len(hotspots))
	var total float64
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		total += weights[i]
	}
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		t := rng.Float64() * total
		h := hotspots[len(hotspots)-1]
		for i, w := range weights {
			t -= w
			if t <= 0 {
				h = hotspots[i]
				break
			}
		}
		p := geom.Point{
			X: h.X + rng.NormFloat64()*0.04,
			Y: h.Y + rng.NormFloat64()*0.04,
		}
		if UnitSquare.Contains(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// FromCenters builds one square range query of the given selectivity
// (fraction of the domain area) around each center, clipped to the domain.
// Queries whose centers fall near the boundary keep their full area by
// shifting inward before clipping, matching the paper's "grow along the
// four directions" construction.
func FromCenters(centers []geom.Point, selectivity float64, domain geom.Rect) []geom.Rect {
	if selectivity <= 0 {
		selectivity = 1e-6
	}
	side := math.Sqrt(selectivity * domain.Area())
	half := side / 2
	qs := make([]geom.Rect, len(centers))
	for i, c := range centers {
		cx := clampTo(c.X, domain.MinX+half, domain.MaxX-half)
		cy := clampTo(c.Y, domain.MinY+half, domain.MaxY-half)
		qs[i] = geom.Rect{MinX: cx - half, MinY: cy - half, MaxX: cx + half, MaxY: cy + half}.Intersect(domain)
	}
	return qs
}

// Skewed generates a full region workload: n range queries of the given
// selectivity with check-in-distributed centers.
func Skewed(r dataset.Region, n int, selectivity float64, seed int64) []geom.Rect {
	return FromCenters(Checkins(r, n, seed), selectivity, UnitSquare)
}

// BenchFixture returns the data set and training workload that wazibench
// builds every index over: 128 000 CaliNev points from seed 1 and 2 000
// skewed queries from seed 2. The benchmark keeps its own copy of these
// numbers (region, trainSel, fixtureSeed in benchmark/inputs.go; sizes in
// benchmark/workloads.go); a change there must be repeated here, or the build
// benchmarks and core.TestLayoutIdentity stop measuring what it runs.
func BenchFixture() ([]geom.Point, []geom.Rect) {
	return dataset.Generate(dataset.CaliNev, 128_000, 1),
		Skewed(dataset.CaliNev, 2_000, 0.0256e-2, 2)
}

// Uniform generates n range queries of the given selectivity with centers
// drawn uniformly from the domain — the uniform drift target of Figure 12.
func Uniform(n int, selectivity float64, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, n)
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return FromCenters(centers, selectivity, UnitSquare)
}

// Mix replaces a fraction of workload a by queries from workload b,
// deterministically in seed: the drift mechanism of §6.8 ("we replace the
// dataset's original workload with ..."). fracB is clamped to [0, 1]. The
// result has the length of a.
func Mix(a, b []geom.Rect, fracB float64, seed int64) []geom.Rect {
	fracB = math.Max(0, math.Min(1, fracB))
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, len(a))
	copy(out, a)
	if len(b) == 0 {
		return out
	}
	replaced := int(fracB * float64(len(a)))
	for _, i := range rng.Perm(len(a))[:replaced] {
		out[i] = b[rng.Intn(len(b))]
	}
	return out
}

// PointQueries samples n point queries from the data distribution D, as the
// paper does for its point-query evaluation (§6.4). Sampling is with
// replacement, deterministic in seed.
func PointQueries(data []geom.Point, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = data[rng.Intn(len(data))]
	}
	return out
}

// InsertBatch draws n insert points uniformly from the data space, as in
// the Figure 11 insert experiment.
func InsertBatch(n int, seed int64) []geom.Point {
	return dataset.Uniform(n, seed^0x1a5e47)
}

func clampTo(v, lo, hi float64) float64 {
	if lo > hi { // domain narrower than the query: collapse to center
		return (lo + hi) / 2
	}
	return math.Max(lo, math.Min(hi, v))
}
