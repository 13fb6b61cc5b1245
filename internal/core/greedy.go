package core

import (
	"math/rand"

	"github.com/wazi-index/wazi/internal/density"
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/storage"
)

// BuildWaZI constructs the workload-aware Z-index of §4 by greedy top-down
// optimization (Algorithm 3): at every cell it samples κ candidate split
// points uniformly from the cell's region, evaluates the Eq. 5 cost of each
// candidate under both child orderings using (learned) density estimates,
// and keeps the minimizer. queries is the anticipated range-query workload Q
// — historical logs or representative queries.
//
// An empty workload degrades gracefully: construction falls back to the
// base median/abcd configuration (the cost function cannot distinguish
// candidates without queries, and the median keeps the tree balanced).
func BuildWaZI(pts []geom.Point, queries []geom.Rect, opts Options) (*ZIndex, error) {
	opts.fill()
	if len(pts) == 0 {
		return nil, ErrNoPoints
	}
	st, err := opts.OpenStore()
	if err != nil {
		return nil, err
	}
	reserveStore(st, len(pts))
	own := make([]geom.Point, len(pts))
	copy(own, pts)
	z := &ZIndex{
		bounds:        geom.RectFromPoints(own),
		count:         len(own),
		opts:          opts,
		workloadAware: true,
	}
	z.adoptStore(st)
	b := &greedyBuilder{opts: opts, st: st, rng: rand.New(rand.NewSource(opts.Seed)), medianBuf: make([]float64, len(own))}
	if !opts.ExactCounts {
		b.est = density.NewForest(own, opts.DensityOpts)
	}
	// Clip the workload to the data space; queries that miss it entirely
	// cannot influence the layout.
	clipped := make([]geom.Rect, 0, len(queries))
	for _, q := range queries {
		if c := q.Intersect(z.bounds); c.Valid() {
			clipped = append(clipped, c)
		}
	}
	z.root = b.build(own, clipped, z.bounds, opts.MaxDepth)
	z.rebuildLeafList()
	if !opts.DisableSkipping {
		z.rebuildLookahead()
	}
	return z, nil
}

// greedyBuilder carries construction state down the recursion.
type greedyBuilder struct {
	opts Options
	st   storage.PageStore
	rng  *rand.Rand
	est  *density.Forest // nil means exact counting over the cell's points
	// medianBuf is medianSplit's scratch, as long as the root cell.
	medianBuf []float64
}

// build implements Algorithm 3 for one cell.
func (b *greedyBuilder) build(pts []geom.Point, queries []geom.Rect, cell geom.Rect, depthLeft int) *node {
	n := &node{cell: cell}
	if len(pts) <= b.opts.LeafSize || depthLeft == 0 {
		n.leaf = newLeaf(b.st, cell, pts)
		return n
	}

	split, order := b.chooseConfig(pts, queries, cell)
	parts := partition(pts, split)
	if degenerate(parts, len(pts)) {
		// The chosen split puts every point on one side. Retry with the
		// median configuration before giving up; the median always splits
		// non-coincident point sets.
		split = medianSplit(pts, b.medianBuf)
		order = OrderABCD
		parts = partition(pts, split)
		if degenerate(parts, len(pts)) {
			n.leaf = newLeaf(b.st, cell, pts)
			return n
		}
	}
	n.split = split
	n.order = order
	for q := geom.Quadrant(0); q < 4; q++ {
		sub := parts[q]
		if len(sub) == 0 {
			continue
		}
		qr := geom.QuadrantRect(cell, split, q)
		n.child[n.order.Pos(q)] = b.build(sub, clipQueries(queries, qr), qr, depthLeft-1)
	}
	return n
}

// chooseConfig samples candidate split points and returns the (split,
// ordering) pair minimizing the Eq. 5 cost. When no candidate is usable
// (all estimated mass in one quadrant for every sample) or the subtree sees
// no workload queries, it falls back to the balanced median/abcd base
// configuration.
func (b *greedyBuilder) chooseConfig(pts []geom.Point, queries []geom.Rect, cell geom.Rect) (geom.Point, Ordering) {
	median := medianSplit(pts, b.medianBuf)
	if len(queries) == 0 {
		// Workload exhausted in this subtree: no signal to optimize for.
		return median, OrderABCD
	}
	candidates := make([]geom.Point, 0, b.opts.Kappa+1)
	for i := 0; i < b.opts.Kappa; i++ {
		candidates = append(candidates, uniformSample(b.rng, cell))
	}
	candidates = append(candidates, median) // the Base configuration's split

	bestCost := infCost
	bestSplit := median
	bestOrder := OrderABCD
	for _, s := range candidates {
		n := b.quadrantCounts(pts, cell, s)
		// A split with (almost) all mass in one quadrant makes no
		// progress: it would minimize cost trivially without improving
		// anything, and recursing on it risks unbounded depth.
		if maxShare(n) > 0.999 {
			continue
		}
		var cost float64
		order := OrderABCD
		if b.opts.OrderABCDOnly {
			cost = cellCost(cell, s, OrderABCD, queries, n, b.opts.Alpha)
		} else {
			cost, order = bestConfig(cell, s, queries, n, b.opts.Alpha)
		}
		if cost < bestCost {
			bestCost, bestSplit, bestOrder = cost, s, order
		}
	}
	return bestSplit, bestOrder
}

// exactCountThreshold is the cell size below which candidate evaluation
// counts points exactly instead of querying the learned estimator. Deep in
// the tree, cells shrink below the estimator's leaf resolution and its
// area-prorated estimates flatten toward uniform, starving the greedy
// choice of signal — while exact counting at these sizes costs O(cell),
// which is cheap. The estimator still carries the expensive upper levels,
// preserving the paper's construction-cost profile.
const exactCountThreshold = 2048

// quadrantCounts estimates the number of data points in each quadrant of
// cell under a split at s, using the learned estimator for large cells and
// exact counting for small ones (and throughout when ExactCounts is set).
func (b *greedyBuilder) quadrantCounts(pts []geom.Point, cell geom.Rect, s geom.Point) [4]float64 {
	var n [4]float64
	if b.est == nil || len(pts) <= exactCountThreshold {
		for _, p := range pts {
			n[geom.QuadrantOf(p, s)]++
		}
		return n
	}
	for q := geom.Quadrant(0); q < 4; q++ {
		n[q] = b.est.Estimate(geom.QuadrantRect(cell, s, q))
	}
	return n
}

// maxShare returns the largest fraction of total mass held by one quadrant.
func maxShare(n [4]float64) float64 {
	total := n[0] + n[1] + n[2] + n[3]
	if total <= 0 {
		return 1
	}
	m := n[0]
	for _, v := range n[1:] {
		if v > m {
			m = v
		}
	}
	return m / total
}

// clipQueries intersects every query with the child cell, dropping queries
// that miss it. This keeps the per-cell q counts exact, per §4.1 ("Q can be
// obtained from historical logs").
func clipQueries(queries []geom.Rect, cell geom.Rect) []geom.Rect {
	out := make([]geom.Rect, 0, len(queries))
	for _, q := range queries {
		if c := q.Intersect(cell); c.Valid() {
			out = append(out, c)
		}
	}
	return out
}
