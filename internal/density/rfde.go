// Package density implements Random Forest Density Estimation (RFDE, Wen &
// Hang 2022) as used by the paper: a forest of k-d trees with randomised
// split dimensions, where every node stores the cardinality of the points in
// its region. A density query for a rectangle traverses each tree, summing
// cardinalities of fully-covered nodes and pro-rating leaves by area overlap,
// and averages across trees.
//
// WaZI uses the forest to estimate the number of data points falling in
// candidate child cells during greedy construction (§4.3).
package density

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"unsafe"

	"github.com/wazi-index/wazi/internal/geom"
)

// Estimator estimates the number of points inside a rectangle.
type Estimator interface {
	// Estimate returns the estimated number of points in r.
	Estimate(r geom.Rect) float64
	// Total returns the number of indexed points.
	Total() float64
}

// Options configure forest construction.
type Options struct {
	// Trees is the number of randomized trees in the forest. More trees
	// reduce estimate variance at proportional build and query cost.
	Trees int
	// LeafSize is the maximum number of points per tree leaf.
	LeafSize int
	// Seed seeds the randomized split-dimension choices.
	Seed int64
}

// DefaultOptions returns the forest configuration used throughout the
// experiments: 4 trees with 64-point leaves.
func DefaultOptions() Options { return Options{Trees: 4, LeafSize: 64, Seed: 1} }

func (o *Options) fill() {
	if o.Trees <= 0 {
		o.Trees = 4
	}
	if o.LeafSize <= 0 {
		o.LeafSize = 64
	}
}

// Forest is a random forest density estimator over points. The zero value
// is not usable; construct with NewForest.
type Forest struct {
	trees [][]kdNode // each tree in preorder, root first
	nPts  int
}

// NewForest builds a forest over pts. Each tree draws its split dimensions
// from its own seeded source, giving de-correlated estimates; nothing else
// in the build is random, so pts (as a multiset) and opts decide the forest.
func NewForest(pts []geom.Point, opts Options) *Forest {
	opts.fill()
	f := &Forest{nPts: len(pts), trees: make([][]kdNode, 0, opts.Trees)}
	if len(pts) == 0 {
		return f
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	scratch := make([]point, len(pts))
	// Median splits leave over LeafSize/2 points per leaf, so under 4n/LeafSize
	// nodes; runs of equal coordinates can make more, and append covers those.
	hint := 4*len(pts)/opts.LeafSize + 1
	for t := 0; t < opts.Trees; t++ {
		for i, p := range pts {
			scratch[i] = point{p.X, p.Y}
		}
		b := kdBuilder{nodes: make([]kdNode, 0, hint), leafSize: opts.LeafSize, rng: rand.New(rand.NewSource(rng.Int63()))}
		b.build(scratch)
		f.trees = append(f.trees, b.nodes)
	}
	return f
}

// Total returns the number of indexed points.
func (f *Forest) Total() float64 { return float64(f.nPts) }

// Estimate returns the trees' mean estimate of the number of points inside r.
func (f *Forest) Estimate(r geom.Rect) float64 {
	if len(f.trees) == 0 || !r.Valid() {
		return 0
	}
	var sum float64
	for _, t := range f.trees {
		sum += estimate(t, 0, r)
	}
	return sum / float64(len(f.trees))
}

// Bytes returns the forest's in-memory footprint, used for index-size
// accounting (Table 5 includes construction-time structures only for indexes
// that retain them; WaZI discards its forest after build).
func (f *Forest) Bytes() int64 {
	var n int64
	for _, t := range f.trees {
		n += int64(len(t)) * int64(unsafe.Sizeof(kdNode{}))
	}
	return n
}

// kdNode is one node of a randomized k-d tree, stored in preorder: the left
// child of node i is node i+1. Every node stores the tight minimum bounding
// rectangle of its subset rather than the half-space cell inherited from the
// split: empty space then contributes nothing to density estimates, which
// matters greatly on clustered spatial data. The points themselves are not
// retained, only region statistics, as in RFDE.
type kdNode struct {
	region geom.Rect
	count  int32 // points in region
	right  int32 // index of the right child; 0 marks a leaf
}

// point is a data point indexable by split dimension: a comparison is one load.
type point [2]float64

// kdBuilder carries one tree's construction state down the recursion.
type kdBuilder struct {
	nodes    []kdNode
	leafSize int
	rng      *rand.Rand
}

// build appends the subtree over s to b.nodes and returns its root's index,
// reordering s. It draws one split dimension per node larger than a leaf,
// left subtree before right: that sequence decides the tree.
func (b *kdBuilder) build(s []point) int32 {
	at := int32(len(b.nodes))
	b.nodes = append(b.nodes, kdNode{count: int32(len(s))})
	mid := 0
	if len(s) > b.leafSize {
		mid = splitAtMedian(s, b.rng.Intn(2))
	}
	if mid == 0 {
		r := geom.Rect{MinX: s[0][0], MinY: s[0][1], MaxX: s[0][0], MaxY: s[0][1]}
		for _, p := range s[1:] {
			r = r.ExtendPoint(geom.Point{X: p[0], Y: p[1]})
		}
		b.nodes[at].region = r
		return at
	}
	b.build(s[:mid])
	right := b.build(s[mid:])
	b.nodes[at].right = right
	b.nodes[at].region = b.nodes[at+1].region.Union(b.nodes[right].region)
	return at
}

// splitAtMedian reorders s so that s[:mid] holds the points whose coordinate
// on dimension d is below the split value and s[mid:] the rest, and returns
// mid. The split value is the upper median, so trees stay balanced whatever
// the distribution, or the next distinct coordinate when the median is also
// the minimum, so both sides are non-empty. When all points agree on d it
// splits on the other dimension; it returns 0 when all points coincide.
func splitAtMedian(s []point, d int) int {
	k := len(s) / 2
	for try := 0; try < 2; try++ {
		selectK(s, k, d, 4*bits.Len(uint(len(s))))
		if mid := partition(s[:k], d, s[k][d], false); mid > 0 {
			return mid
		}
		// s[:k+1] all hold the minimum: it alone goes left.
		if mid := k + 1 + partition(s[k+1:], d, s[k][d], true); mid < len(s) {
			return mid
		}
		d = 1 - d
	}
	return 0
}

// partition moves the points of s whose coordinate on d is below v, or equal
// to it if orEqual, to the front and returns how many there are.
func partition(s []point, d int, v float64, orEqual bool) int {
	n := 0
	for i := range s {
		if c := s[i][d]; c < v || orEqual && c == v {
			s[i], s[n] = s[n], s[i]
			n++
		}
	}
	return n
}

// selectK reorders s so that s[k] is the point a sort on dimension d would
// put there, with no larger coordinate before it and no smaller one after:
// quickselect, expected linear. The pivot rule must not be random (the forest
// is a function of its input and seed), so the quadratic inputs are guarded
// instead: after maxRounds partitions, several times what a healthy selection
// takes, the rest is sorted. It is an argument so TestSelectK can force that.
//
// core.quickMedian is the same idea over a bare []float64; this one moves
// whole points keyed by a run-time dimension, and sharing one kernel would
// put a key callback in both inner loops.
func selectK(s []point, k, d, maxRounds int) {
	lo, hi := 0, len(s)-1
	for ; lo < hi; maxRounds-- {
		if maxRounds <= 0 {
			slices.SortFunc(s[lo:hi+1], func(a, b point) int { return cmp.Compare(a[d], b[d]) })
			return
		}
		// Median of three: sorted and reversed ranges split in the middle.
		a, pivot, c := s[lo][d], s[lo+(hi-lo)/2][d], s[hi][d]
		if a > pivot {
			a, pivot = pivot, a
		}
		pivot = max(a, min(pivot, c))
		i, j := lo, hi
		for i <= j {
			for s[i][d] < pivot {
				i++
			}
			for s[j][d] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return // j < k < i: s[k] is the pivot
		}
	}
}

// estimate sums node counts of the subtree at i over the query rectangle:
// fully covered nodes contribute their whole count, partially covered leaves
// their count pro-rated by area overlap (RFDE's density-estimation step).
func estimate(nodes []kdNode, i int32, r geom.Rect) float64 {
	n := &nodes[i]
	if !n.region.Intersects(r) {
		return 0
	}
	if r.ContainsRect(n.region) {
		return float64(n.count)
	}
	if n.right == 0 {
		return float64(n.count) * overlapFraction(n.region, r)
	}
	return estimate(nodes, i+1, r) + estimate(nodes, n.right, r)
}

// overlapFraction returns the fraction of region covered by r, assuming
// uniform density within region. Degenerate regions (zero width or height,
// from collinear or coincident points) prorate by the remaining extent.
func overlapFraction(region, r geom.Rect) float64 {
	ov := region.Intersect(r)
	if !ov.Valid() {
		return 0
	}
	switch {
	case region.Area() > 0:
		return ov.Area() / region.Area()
	case region.Width() > 0:
		return ov.Width() / region.Width()
	case region.Height() > 0:
		return ov.Height() / region.Height()
	default:
		return 1 // point mass inside r
	}
}

// ExactCounter is an Estimator that counts points by brute force: the ground
// truth for the forest's tests. (core.Options.ExactCounts does not use it;
// core counts each cell's own points.)
type ExactCounter struct{ pts []geom.Point }

// NewExactCounter returns an exact (non-learned) estimator over pts.
func NewExactCounter(pts []geom.Point) *ExactCounter { return &ExactCounter{pts: pts} }

// Estimate returns the exact number of points in r.
func (c *ExactCounter) Estimate(r geom.Rect) float64 {
	var n int
	for _, p := range c.pts {
		if r.Contains(p) {
			n++
		}
	}
	return float64(n)
}

// Total returns the number of points.
func (c *ExactCounter) Total() float64 { return float64(len(c.pts)) }
