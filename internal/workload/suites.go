package workload

import (
	"math"
	"math/rand"

	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/geom"
)

// Suite is a named, reproducible workload scenario: a deterministic query
// generator plus the fraction of operations that are writes. Suites give
// load replays scenario diversity beyond the paper's skewed check-in
// workload — a uniform baseline, a tighter Gaussian skew, drift
// mid-stream, mixed read/write traffic, and an adversarial shape that
// fights the Z-order curve.
type Suite struct {
	// Name identifies the suite in load tables, metric names, and the
	// waziload command line.
	Name string
	// Description is a one-line human explanation.
	Description string
	// WriteRatio is the fraction of operations that are inserts when the
	// suite is run as an operation mix (0 = read-only).
	WriteRatio float64
	// Queries generates n range queries of the given selectivity for
	// region r, deterministically in seed.
	Queries func(r dataset.Region, n int, sel float64, seed int64) []geom.Rect
}

// Suites returns the named workload scenarios in presentation order.
func Suites() []Suite {
	return []Suite{
		{
			Name:        "uniform",
			Description: "query centers uniform over the domain (no skew)",
			Queries: func(r dataset.Region, n int, sel float64, seed int64) []geom.Rect {
				return Uniform(n, sel, seed)
			},
		},
		{
			Name:        "gaussian-skew",
			Description: "one Gaussian hotspot: all query centers cluster around the region's busiest venue",
			Queries:     Gaussian,
		},
		{
			Name:        "hotspot-shift",
			Description: "drift mid-stream: hotspot popularity reverses halfway through the query sequence",
			Queries:     HotspotShift,
		},
		{
			Name:        "mixed-rw10",
			Description: "paper's skewed check-in reads with 10% uniform inserts",
			WriteRatio:  0.10,
			Queries:     Skewed,
		},
		{
			Name:        "mixed-rw30",
			Description: "paper's skewed check-in reads with 30% uniform inserts",
			WriteRatio:  0.30,
			Queries:     Skewed,
		},
		{
			Name:        "mixed-rw50",
			Description: "paper's skewed check-in reads with 50% uniform inserts (write-heavy durability mix)",
			WriteRatio:  0.50,
			Queries:     Skewed,
		},
		{
			Name:        "mixed-rw70",
			Description: "paper's skewed check-in reads with 70% uniform inserts (ingest-dominated durability mix)",
			WriteRatio:  0.70,
			Queries:     Skewed,
		},
		{
			Name:        "zipfian",
			Description: "Zipf-popular venues: query centers follow a Zipf(1.1) rank distribution over many venues, the canonical web-serving skew",
			Queries:     Zipfian,
		},
		{
			Name:        "adversarial-anticorrelated",
			Description: "thin anti-correlated rectangles along the anti-diagonal, hostile to Z-order locality",
			Queries: func(r dataset.Region, n int, sel float64, seed int64) []geom.Rect {
				return AntiCorrelated(n, sel, seed)
			},
		},
	}
}

// SuiteByName returns the named suite.
func SuiteByName(name string) (Suite, bool) {
	for _, s := range Suites() {
		if s.Name == name {
			return s, true
		}
	}
	return Suite{}, false
}

// Gaussian generates n range queries whose centers form a single Gaussian
// blob (σ = 0.08) around the region's dominant hotspot — a harder skew
// than Checkins, which spreads mass over every hotspot. Deterministic in
// seed.
func Gaussian(r dataset.Region, n int, sel float64, seed int64) []geom.Rect {
	center := dataset.Hotspots(r)[0]
	rng := rand.New(rand.NewSource(seed ^ 0x9a0551))
	centers := make([]geom.Point, 0, n)
	for len(centers) < n {
		p := geom.Point{
			X: center.X + rng.NormFloat64()*0.08,
			Y: center.Y + rng.NormFloat64()*0.08,
		}
		if UnitSquare.Contains(p) {
			centers = append(centers, p)
		}
	}
	return FromCenters(centers, sel, UnitSquare)
}

// HotspotShift generates a drifting workload: the first half of the
// queries follows the region's check-in skew (popularity ∝ 1/rank), the
// second half the reversed popularity order, so the busiest venue becomes
// the quietest mid-stream. An index trained on the head of this sequence
// sees genuine drift in its tail; the sequence order is the signal, so
// callers must not shuffle it. Deterministic in seed.
func HotspotShift(r dataset.Region, n int, sel float64, seed int64) []geom.Rect {
	hotspots := dataset.Hotspots(r)
	reversed := make([]geom.Point, len(hotspots))
	for i, h := range hotspots {
		reversed[len(hotspots)-1-i] = h
	}
	half := n / 2
	head := fromHotspots(hotspots, half, seed^0x517f7)
	tail := fromHotspots(reversed, n-half, seed^0x7f715)
	return append(FromCenters(head, sel, UnitSquare), FromCenters(tail, sel, UnitSquare)...)
}

// fromHotspots draws n centers from a hotspot list with 1/rank weights —
// the Checkins mixture, but over an arbitrary hotspot ordering.
func fromHotspots(hotspots []geom.Point, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
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

// zipfVenues is the venue-universe size of the Zipfian suite: large enough
// that the popularity tail matters, small enough that the head venues absorb
// most of the traffic.
const zipfVenues = 256

// Zipfian generates n range queries whose centers cluster around venues
// whose popularity follows a Zipf distribution of exponent 1.1 over rank —
// the canonical point-popularity model of web serving traffic (a few
// entities absorb most requests, with a long tail). The venue locations are
// themselves drawn from the region's check-in distribution, so the hot
// venues sit inside the region's busy areas, and each query jitters tightly
// (σ = 0.01) around its venue. Deterministic in seed; the venue universe
// depends only on the region, so two seeds share venues but visit them in
// different orders.
func Zipfian(r dataset.Region, n int, sel float64, seed int64) []geom.Rect {
	// Venues are seeded by the region alone: the serving fleet and the load
	// generator must agree on where the hot venues are regardless of which
	// replay seed either uses.
	venues := Checkins(r, zipfVenues, 0x21bf1a^int64(r))
	rng := rand.New(rand.NewSource(seed ^ 0x21bf9))
	zipf := rand.NewZipf(rng, 1.1, 1, zipfVenues-1)
	centers := make([]geom.Point, 0, n)
	for len(centers) < n {
		v := venues[zipf.Uint64()]
		p := geom.Point{
			X: v.X + rng.NormFloat64()*0.01,
			Y: v.Y + rng.NormFloat64()*0.01,
		}
		if UnitSquare.Contains(p) {
			centers = append(centers, p)
		}
	}
	return FromCenters(centers, sel, UnitSquare)
}

// AntiCorrelated generates n thin rectangles of the given selectivity
// (same area as the square queries, aspect ratio 16:1, alternating
// orientation) whose centers lie in a band around the anti-diagonal
// y = 1 - x. Long thin ranges crossing the anti-diagonal are the
// worst case for Z-order curves: they intersect many curve segments while
// covering few points per segment, maximizing projection work per result.
// Deterministic in seed.
func AntiCorrelated(n int, sel float64, seed int64) []geom.Rect {
	if sel <= 0 {
		sel = 1e-6
	}
	const aspect = 16.0
	area := sel * UnitSquare.Area()
	short := math.Sqrt(area / aspect)
	long := short * aspect
	rng := rand.New(rand.NewSource(seed ^ 0xa471c0))
	qs := make([]geom.Rect, n)
	for i := range qs {
		// A center on the anti-diagonal, jittered into a narrow band.
		x := rng.Float64()
		c := geom.Point{X: x, Y: 1 - x + (rng.Float64()-0.5)*0.1}
		halfW, halfH := long/2, short/2
		if i%2 == 1 {
			halfW, halfH = halfH, halfW
		}
		cx := clampTo(c.X, UnitSquare.MinX+halfW, UnitSquare.MaxX-halfW)
		cy := clampTo(c.Y, UnitSquare.MinY+halfH, UnitSquare.MaxY-halfH)
		qs[i] = geom.Rect{MinX: cx - halfW, MinY: cy - halfH, MaxX: cx + halfW, MaxY: cy + halfH}.
			Intersect(UnitSquare)
	}
	return qs
}

// Op is one operation of a mixed read/write stream: either a range query
// or an insert.
type Op struct {
	// IsWrite selects between the two fields below.
	IsWrite bool
	// Query is the range query to execute when IsWrite is false.
	Query geom.Rect
	// Point is the point to insert when IsWrite is true.
	Point geom.Point
}

// MixedOps interleaves queries and inserts into one operation stream with
// the given write ratio (clamped to [0, 1]), deterministically in seed.
// Queries keep their relative order (preserving any drift encoded in the
// sequence); inserts are spread uniformly through the stream, sized so
// writes make up writeRatio of the total. A ratio of 0 returns a read-only
// stream of the queries; a ratio of 1 returns a write-only stream of the
// inserts.
func MixedOps(queries []geom.Rect, inserts []geom.Point, writeRatio float64, seed int64) []Op {
	writeRatio = math.Max(0, math.Min(1, writeRatio))
	if writeRatio == 0 || len(inserts) == 0 {
		out := make([]Op, len(queries))
		for i, q := range queries {
			out[i] = Op{Query: q}
		}
		return out
	}
	if writeRatio == 1 {
		out := make([]Op, len(inserts))
		for i, p := range inserts {
			out[i] = Op{IsWrite: true, Point: p}
		}
		return out
	}
	// writes / (reads + writes) = writeRatio  =>  writes = reads·ratio/(1-ratio).
	nw := int(math.Round(float64(len(queries)) * writeRatio / (1 - writeRatio)))
	if nw < 1 {
		nw = 1
	}
	rng := rand.New(rand.NewSource(seed ^ 0x3e1ced))
	out := make([]Op, 0, len(queries)+nw)
	qi, wi := 0, 0
	for qi < len(queries) || wi < nw {
		// Choose the next op kind proportionally to what remains, so the
		// mix stays close to the target ratio throughout the stream.
		remQ, remW := len(queries)-qi, nw-wi
		if remW > 0 && (remQ == 0 || rng.Float64() < float64(remW)/float64(remQ+remW)) {
			out = append(out, Op{IsWrite: true, Point: inserts[wi%len(inserts)]})
			wi++
		} else {
			out = append(out, Op{Query: queries[qi]})
			qi++
		}
	}
	return out
}
