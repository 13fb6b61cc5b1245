package core

import (
	"math/rand"
	"slices"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/storage"
)

// BuildBase constructs the classic Z-index of §3: split points at the data
// medians along each axis and the "abcd" ordering at every node. Look-ahead
// pointers are built unless opts.DisableSkipping is set (the paper's Base
// uses naive scanning, i.e. DisableSkipping=true; the Base+SK ablation
// variant leaves skipping on).
func BuildBase(pts []geom.Point, opts Options) (*ZIndex, error) {
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
	z := &ZIndex{bounds: geom.RectFromPoints(own), count: len(own), opts: opts}
	z.adoptStore(st)
	z.root = buildMedian(st, own, z.bounds, opts.LeafSize, opts.MaxDepth, make([]float64, len(own)))
	z.rebuildLeafList()
	if !opts.DisableSkipping {
		z.rebuildLookahead()
	}
	return z, nil
}

// buildMedian recursively builds the median/abcd tree of the base variant.
// buf is medianSplit's scratch.
func buildMedian(st storage.PageStore, pts []geom.Point, cell geom.Rect, leafSize, depthLeft int, buf []float64) *node {
	n := &node{cell: cell}
	if len(pts) <= leafSize || depthLeft == 0 {
		n.leaf = newLeaf(st, cell, pts)
		return n
	}
	split := medianSplit(pts, buf)
	parts := partition(pts, split)
	if degenerate(parts, len(pts)) {
		n.leaf = newLeaf(st, cell, pts)
		return n
	}
	n.split = split
	n.order = OrderABCD
	for q := geom.Quadrant(0); q < 4; q++ {
		sub := parts[q]
		if len(sub) == 0 {
			continue
		}
		pos := n.order.Pos(q)
		n.child[pos] = buildMedian(st, sub, geom.QuadrantRect(cell, split, q), leafSize, depthLeft-1, buf)
	}
	return n
}

// newLeaf creates a leaf node body over pts with the given cell as its
// bounding rectangle, allocating the data page in the index's store (which
// copies pts). It reorders pts, which every caller owns, into the page's
// run, the points inside cell in geom.CmpXY order, and the tail of the rest.
func newLeaf(st storage.PageStore, cell geom.Rect, pts []geom.Point) *Leaf {
	run := 0
	for i, p := range pts {
		if cell.Contains(p) {
			pts[run], pts[i] = p, pts[run]
			run++
		}
	}
	slices.SortFunc(pts[:run], geom.CmpXY)
	return &Leaf{bounds: cell, pid: st.Alloc(pts, cell), n: len(pts), sorted: run}
}

// partition splits pts into the four quadrants around split, using the same
// strict > comparisons as geom.QuadrantOf (points on a split line go to the
// lower quadrant).
func partition(pts []geom.Point, split geom.Point) [4][]geom.Point {
	var counts [4]int
	for _, p := range pts {
		counts[geom.QuadrantOf(p, split)]++
	}
	var parts [4][]geom.Point
	for q := range parts {
		if counts[q] > 0 {
			parts[q] = make([]geom.Point, 0, counts[q])
		}
	}
	for _, p := range pts {
		q := geom.QuadrantOf(p, split)
		parts[q] = append(parts[q], p)
	}
	return parts
}

// degenerate reports whether a partition failed to make progress: every
// point landed in a single quadrant. Recursing on such a partition with
// coincident points would never terminate.
func degenerate(parts [4][]geom.Point, total int) bool {
	for _, p := range parts {
		if len(p) == total {
			return true
		}
	}
	return false
}

// medianSplit returns the split point at the upper median of pts on each
// axis, over the points without a NaN coordinate (the origin if there are
// none). buf is the selection's scratch, at least len(pts) long; builders
// size one at the root and pass it down, since every cell of a build asks.
func medianSplit(pts []geom.Point, buf []float64) geom.Point {
	xs := buf[:0]
	for _, p := range pts {
		if p == p {
			xs = append(xs, p.X)
		}
	}
	if len(xs) == 0 {
		return geom.Point{}
	}
	x, ys := quickMedian(xs), buf[:0]
	for _, p := range pts {
		if p == p {
			ys = append(ys, p.Y)
		}
	}
	return geom.Point{X: x, Y: quickMedian(ys)}
}

// quickMedian selects the element at index len/2 in expected linear time.
// It mutates vals.
func quickMedian(vals []float64) float64 {
	k := len(vals) / 2
	lo, hi := 0, len(vals)-1
	for lo < hi {
		// Median-of-three pivot guards against sorted inputs.
		mid := lo + (hi-lo)/2
		if vals[mid] < vals[lo] {
			vals[mid], vals[lo] = vals[lo], vals[mid]
		}
		if vals[hi] < vals[lo] {
			vals[hi], vals[lo] = vals[lo], vals[hi]
		}
		if vals[hi] < vals[mid] {
			vals[hi], vals[mid] = vals[mid], vals[hi]
		}
		pivot := vals[mid]
		i, j := lo, hi
		for i <= j {
			for vals[i] < pivot {
				i++
			}
			for vals[j] > pivot {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return vals[k]
}

// rebuildLeafList rewalks the tree in ordering position order, relinking the
// doubly-linked leaf list and renumbering ords. It runs after construction
// and after every structural update (page split, new leaf).
func (z *ZIndex) rebuildLeafList() {
	var prev *Leaf
	ord := 0
	z.head = nil
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.leaf != nil {
			l := n.leaf
			l.prev = prev
			l.next = nil
			l.ord = ord
			ord++
			if prev != nil {
				prev.next = l
			} else {
				z.head = l
			}
			prev = l
			return
		}
		for pos := 0; pos < 4; pos++ {
			walk(n.child[pos])
		}
	}
	walk(z.root)
}

// uniformSample draws a point uniformly at random from r.
func uniformSample(rng *rand.Rand, r geom.Rect) geom.Point {
	return geom.Point{
		X: r.MinX + rng.Float64()*r.Width(),
		Y: r.MinY + rng.Float64()*r.Height(),
	}
}
