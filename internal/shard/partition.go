// Package shard partitions a point set across N independent indexes for
// parallel serving. The partitioner cuts the Z-order curve into N contiguous
// key ranges, but instead of balancing point counts it balances *anticipated
// load*: each point is weighted by the query mass a workload histogram
// assigns to its grid cell, so hotspot regions are spread across more,
// smaller shards and cold regions are packed into fewer, larger ones.
package shard

import (
	"math"
	"sort"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/zorder"
)

// histSide is the resolution of the query-mass histogram. 64×64 cells is
// fine enough to separate the hotspots of the paper's skewed workloads and
// coarse enough that distributing a query over its covered cells stays
// cheap.
const histSide = 64

// Plan is a completed partitioning: the key ranges, and each point assigned
// to its shard. Locate routes any point — including points seen only after
// partitioning — to the shard whose key range owns it, so inserts and point
// lookups agree forever on where a point lives.
type Plan struct {
	bounds geom.Rect
	// cuts are the lower boundaries of shards 1..n-1: shard i owns keys in
	// [cuts[i-1], cuts[i]), with shards 0 and n-1 open-ended.
	cuts []zorder.Key
	// Groups holds the initial points of each shard; some groups may be
	// empty when the data has fewer distinct Z-keys than shards.
	Groups [][]geom.Point
}

// Partition splits pts into at most n Z-order-contiguous groups whose
// anticipated load — an equal blend of point count and workload query mass —
// is balanced. Queries may be nil, in which case the split balances point
// counts only. Points with equal Z-keys always land in the same group.
// Partition panics on empty pts, mirroring geom.RectFromPoints.
func Partition(pts []geom.Point, queries []geom.Rect, n int) *Plan {
	bounds := geom.RectFromPoints(pts)
	if n < 1 {
		n = 1
	}
	if n > len(pts) {
		n = len(pts)
	}
	p := &Plan{bounds: bounds}

	keys := make([]zorder.Key, len(pts))
	order := make([]int, len(pts))
	for i, pt := range pts {
		keys[i] = p.Key(pt)
		order[i] = i
	}
	// Canonical order: key, then coordinates. Ties broken by position (not
	// input index) make the cut walk — including its floating-point weight
	// accumulation — a pure function of the point multiset, so any
	// permutation of pts yields an identical plan. The online repartitioner
	// relies on this: re-learning from unchanged data must be a no-op.
	sort.Slice(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		if ka != kb {
			return ka < kb
		}
		pa, pb := pts[order[a]], pts[order[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})

	weights := pointWeights(pts, queries, bounds)
	var total float64
	for _, w := range weights {
		total += w
	}

	// Walk the key-sorted points, cutting whenever the accumulated weight
	// crosses the next 1/n-th of the total — but only at key boundaries, so
	// duplicate keys stay together and Locate stays consistent.
	var cum float64
	next := 1
	for i, idx := range order {
		cum += weights[idx]
		if next >= n {
			break
		}
		if cum >= total*float64(next)/float64(n) && i+1 < len(order) &&
			keys[order[i+1]] != keys[idx] {
			p.cuts = append(p.cuts, keys[order[i+1]])
			next++
		}
	}

	p.Groups = make([][]geom.Point, len(p.cuts)+1)
	for _, pt := range pts {
		g := p.Locate(pt)
		p.Groups[g] = append(p.Groups[g], pt)
	}
	return p
}

// Bounds returns the data rectangle the plan was built over.
func (p *Plan) Bounds() geom.Rect { return p.bounds }

// Cuts returns the shard boundary keys (see the cuts field), for
// serialization. The returned slice must not be modified.
func (p *Plan) Cuts() []zorder.Key { return p.cuts }

// Restore reconstructs a plan from its serialized parts — the data bounds
// and the boundary keys — without the initial point groups, which only
// matter at construction time. Locate on the restored plan routes exactly
// as on the original: routing depends only on bounds and cuts.
func Restore(bounds geom.Rect, cuts []zorder.Key) *Plan {
	return &Plan{bounds: bounds, cuts: append([]zorder.Key(nil), cuts...)}
}

// NumShards returns the number of shards in the plan.
func (p *Plan) NumShards() int { return len(p.cuts) + 1 }

// Locate returns the shard owning pt's Z-key. Points outside the plan's
// bounds clamp to the boundary, so routing is total and deterministic.
func (p *Plan) Locate(pt geom.Point) int {
	return p.locateKey(p.Key(pt))
}

// locateKey returns the shard whose key interval owns k.
func (p *Plan) locateKey(k zorder.Key) int {
	return sort.Search(len(p.cuts), func(i int) bool { return k < p.cuts[i] })
}

// Key maps pt to its Z-order key on a 2^32 grid over the plan's bounds.
func (p *Plan) Key(pt geom.Point) zorder.Key {
	return zorder.Encode(gridCoord(pt.X, p.bounds.MinX, p.bounds.MaxX),
		gridCoord(pt.Y, p.bounds.MinY, p.bounds.MaxY))
}

// gridCoord scales v in [lo, hi] onto the 32-bit grid, clamping outliers.
func gridCoord(v, lo, hi float64) uint32 {
	if hi <= lo {
		return 0
	}
	f := (v - lo) / (hi - lo)
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return math.MaxUint32
	}
	return uint32(f * math.MaxUint32)
}

// pointWeights blends data balance and load balance: half of every point's
// weight is its share of the point count, the other half is its cell's share
// of the workload's query mass split among the cell's points. Query mass
// over empty cells contributes nothing (no point can absorb it).
func pointWeights(pts []geom.Point, queries []geom.Rect, bounds geom.Rect) []float64 {
	weights := make([]float64, len(pts))
	base := 1 / float64(len(pts))
	mass := queryMass(queries, bounds)
	if mass == nil {
		for i := range weights {
			weights[i] = base
		}
		return weights
	}
	cellOf := func(pt geom.Point) int {
		cx := int(float64(histSide) * (pt.X - bounds.MinX) / math.Max(bounds.Width(), 1e-300))
		cy := int(float64(histSide) * (pt.Y - bounds.MinY) / math.Max(bounds.Height(), 1e-300))
		cx = clampInt(cx, 0, histSide-1)
		cy = clampInt(cy, 0, histSide-1)
		return cy*histSide + cx
	}
	occupancy := make([]int, histSide*histSide)
	for _, pt := range pts {
		occupancy[cellOf(pt)]++
	}
	var live float64 // query mass that lands on occupied cells
	for c, m := range mass {
		if occupancy[c] > 0 {
			live += m
		}
	}
	if live <= 0 {
		for i := range weights {
			weights[i] = base
		}
		return weights
	}
	for i, pt := range pts {
		c := cellOf(pt)
		weights[i] = 0.5*base + 0.5*mass[c]/live/float64(occupancy[c])
	}
	return weights
}

// queryMass spreads each query's unit mass over the histogram cells it
// covers, proportional to overlap area. Returns nil for an empty workload.
func queryMass(queries []geom.Rect, bounds geom.Rect) []float64 {
	if len(queries) == 0 {
		return nil
	}
	mass := make([]float64, histSide*histSide)
	cw := math.Max(bounds.Width(), 1e-300) / histSide
	ch := math.Max(bounds.Height(), 1e-300) / histSide
	any := false
	for _, q := range queries {
		c := q.Intersect(bounds)
		if !c.Valid() {
			continue
		}
		x0 := clampInt(int((c.MinX-bounds.MinX)/cw), 0, histSide-1)
		x1 := clampInt(int((c.MaxX-bounds.MinX)/cw), 0, histSide-1)
		y0 := clampInt(int((c.MinY-bounds.MinY)/ch), 0, histSide-1)
		y1 := clampInt(int((c.MaxY-bounds.MinY)/ch), 0, histSide-1)
		area := c.Area()
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				cell := geom.Rect{
					MinX: bounds.MinX + float64(cx)*cw, MinY: bounds.MinY + float64(cy)*ch,
					MaxX: bounds.MinX + float64(cx+1)*cw, MaxY: bounds.MinY + float64(cy+1)*ch,
				}
				if area > 0 {
					mass[cy*histSide+cx] += c.OverlapArea(cell) / area
				} else {
					// Degenerate (line/point) query: all mass to one cell.
					mass[cy*histSide+cx]++
				}
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return mass
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
