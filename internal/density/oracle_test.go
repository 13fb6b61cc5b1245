package density

import (
	"math/rand"
	"sort"

	"github.com/wazi-index/wazi/internal/geom"
)

// The sort-based forest builder NewForest used before it selected medians:
// a full sort of an index slice at every level of every tree, pointer nodes,
// an MBR pass per node. It is kept, logic untouched, as the reference the
// selection builder must reproduce node for node.

type oracleNode struct {
	region geom.Rect
	weight float64
	left   *oracleNode
	right  *oracleNode
}

func oracleForest(pts []geom.Point, opts Options) []*oracleNode {
	opts.fill()
	if len(pts) == 0 {
		return nil
	}
	var trees []*oracleNode
	rng := rand.New(rand.NewSource(opts.Seed))
	for t := 0; t < opts.Trees; t++ {
		idx := make([]int, len(pts))
		for i := range idx {
			idx[i] = i
		}
		trees = append(trees, oracleBuildKD(pts, idx, opts.LeafSize, rand.New(rand.NewSource(rng.Int63()))))
	}
	return trees
}

func oracleBuildKD(pts []geom.Point, idx []int, leafSize int, rng *rand.Rand) *oracleNode {
	n := &oracleNode{region: oracleMBR(pts, idx)}
	for range idx {
		n.weight++
	}
	if len(idx) <= leafSize {
		return n
	}
	dim := rng.Intn(2)
	coord := func(i int) float64 {
		if dim == 0 {
			return pts[i].X
		}
		return pts[i].Y
	}
	sort.Slice(idx, func(a, b int) bool { return coord(idx[a]) < coord(idx[b]) })
	mid := len(idx) / 2
	split := coord(idx[mid])
	// Degenerate distributions can place every point on the split plane;
	// fall back to a leaf rather than recurse forever.
	if split == coord(idx[0]) && split == coord(idx[len(idx)-1]) {
		dim = 1 - dim
		coord = func(i int) float64 {
			if dim == 0 {
				return pts[i].X
			}
			return pts[i].Y
		}
		sort.Slice(idx, func(a, b int) bool { return coord(idx[a]) < coord(idx[b]) })
		mid = len(idx) / 2
		split = coord(idx[mid])
		if split == coord(idx[0]) && split == coord(idx[len(idx)-1]) {
			return n // all points coincide
		}
	}
	// Ensure both sides are non-empty by moving mid off a run of equal
	// coordinates.
	for mid > 0 && coord(idx[mid-1]) == split {
		mid--
	}
	if mid == 0 {
		for mid < len(idx) && coord(idx[mid]) == split {
			mid++
		}
		if mid == len(idx) {
			return n
		}
		split = coord(idx[mid])
		for mid > 0 && coord(idx[mid-1]) == split {
			mid--
		}
	}
	n.left = oracleBuildKD(pts, idx[:mid], leafSize, rng)
	n.right = oracleBuildKD(pts, idx[mid:], leafSize, rng)
	return n
}

func oracleMBR(pts []geom.Point, idx []int) geom.Rect {
	r := geom.Rect{
		MinX: pts[idx[0]].X, MinY: pts[idx[0]].Y,
		MaxX: pts[idx[0]].X, MaxY: pts[idx[0]].Y,
	}
	for _, i := range idx[1:] {
		r = r.ExtendPoint(pts[i])
	}
	return r
}

func (n *oracleNode) estimate(r geom.Rect) float64 {
	if !n.region.Intersects(r) {
		return 0
	}
	if r.ContainsRect(n.region) {
		return n.weight
	}
	if n.left == nil { // leaf
		return n.weight * overlapFraction(n.region, r)
	}
	return n.left.estimate(r) + n.right.estimate(r)
}

func oracleEstimate(trees []*oracleNode, r geom.Rect) float64 {
	if len(trees) == 0 || !r.Valid() {
		return 0
	}
	var sum float64
	for _, t := range trees {
		sum += t.estimate(r)
	}
	return sum / float64(len(trees))
}
