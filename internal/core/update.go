package core

import (
	"slices"

	"github.com/wazi-index/wazi/internal/geom"
)

// This file implements index updates (§6.7). Inserting or deleting a point
// proceeds like point-query processing: descend to the enclosing leaf and
// update its page. Overflowing pages split along the data medians (as the
// paper does for WaZI); underflowing sibling groups merge back into their
// parent cell. Structural changes renumber the leaf list and eagerly
// recompute the look-ahead pointers — the recomputation the paper cites as
// the cause of WaZI's comparatively slow inserts.

// Insert adds p to the index. Points outside the current data-space bounds
// (or outside the cells along the descent path, which can lag behind the
// bounds after earlier out-of-domain inserts) are accommodated by growing
// the affected cells; a point with a NaN coordinate grows none.
func (z *ZIndex) Insert(p geom.Point) {
	z.stats.Inserts++
	// Bounds and cells are extended only when p falls outside them: the
	// common in-cell insert then reads each cell and writes none. (An edge
	// at +0 stays +0 when −0 is inserted on it, where an unconditional
	// ExtendPoint would rewrite it to −0; every comparison treats the two
	// as equal.)
	grow := p == p
	if grow && !z.bounds.Contains(p) {
		z.bounds = z.bounds.ExtendPoint(p)
	}
	n := z.root
	for {
		if grow && !n.cell.Contains(p) {
			n.cell = n.cell.ExtendPoint(p)
		}
		if n.leaf != nil {
			break
		}
		q := geom.QuadrantOf(p, n.split)
		pos := n.order.Pos(q)
		if n.child[pos] == nil {
			// First point in this quadrant: materialize a fresh leaf.
			cell := geom.QuadrantRect(n.cell, n.split, q)
			n.child[pos] = &node{cell: cell, leaf: newLeaf(z.store, cell, []geom.Point{p})}
			z.count++
			z.structuralChange()
			return
		}
		n = n.child[pos]
	}
	l := n.leaf
	grew := false
	if grow && !l.bounds.Contains(p) {
		l.bounds = l.bounds.ExtendPoint(p)
		grew = true
	}
	pg := z.store.Page(l.pid)
	pg.Pts = append(pg.Pts, p)
	l.n++
	z.count++
	if l.n > z.opts.LeafSize && z.splitLeaf(n, pg.Pts) {
		return // splitLeaf persisted the points into fresh pages
	}
	// Not split (common case, or coincident points that cannot split):
	// persist the appended page now — exactly one page write per insert.
	z.store.Update(l.pid, pg.Pts, l.bounds)
	if grew {
		// Grown bounds can invalidate look-ahead pointers of earlier
		// leaves; restore safety by full recomputation.
		z.structuralChange()
	}
}

// splitLeaf converts an overflowing leaf node into an internal node with a
// median split and abcd ordering, distributing its page across up to four
// new leaves.
func (z *ZIndex) splitLeaf(n *node, pts []geom.Point) bool {
	split := medianSplit(pts, make([]float64, len(pts)))
	parts := partition(pts, split) // copies pts, so freeing the page below is safe
	if degenerate(parts, len(pts)) {
		// Coincident points: leave the oversized page in place; a split
		// cannot separate them. (The disk backend chains continuation
		// slots for such pages.) The caller persists the page instead.
		return false
	}
	// Detach the old leaf and recycle its page; the leaf's next pointer
	// keeps forwarding into the list so that any in-flight iterator would
	// drain safely.
	z.store.Free(n.leaf.pid)
	n.leaf = nil
	n.split = split
	n.order = OrderABCD
	for q := geom.Quadrant(0); q < 4; q++ {
		if len(parts[q]) == 0 {
			continue
		}
		cell := geom.QuadrantRect(n.cell, split, q)
		n.child[n.order.Pos(q)] = &node{cell: cell, leaf: newLeaf(z.store, cell, parts[q])}
	}
	z.stats.PageSplits++
	z.structuralChange()
	return true
}

// Delete removes one point equal to p, reporting whether a point was
// removed. Sibling leaves whose combined occupancy falls to a quarter of
// the page capacity are merged back into their parent cell.
func (z *ZIndex) Delete(p geom.Point) bool {
	z.stats.Deletes++
	if !z.bounds.Contains(p) {
		return false
	}
	// Descend, remembering the leaf's parent for the merge check.
	var parent *node
	n := z.root
	for n != nil && n.leaf == nil {
		parent = n
		n = n.child[n.order.Pos(geom.QuadrantOf(p, n.split))]
	}
	if n == nil {
		return false
	}
	l := n.leaf
	pg := z.store.Page(l.pid)
	i := slices.Index(pg.Pts, p)
	if i < 0 {
		return false
	}
	last := len(pg.Pts) - 1
	if i < l.sorted {
		l.sorted-- // the run keeps its order, and the tail shifts with it
		copy(pg.Pts[i:], pg.Pts[i+1:])
	} else {
		pg.Pts[i] = pg.Pts[last]
	}
	pg.Pts = pg.Pts[:last]
	z.store.Update(l.pid, pg.Pts, l.bounds)
	l.n--
	z.count--
	if parent != nil {
		z.maybeMerge(parent)
	}
	return true
}

// maybeMerge collapses parent into a single leaf when all of its children
// are leaves and their pages jointly fit comfortably (a quarter of the page
// capacity, leaving headroom against thrashing).
func (z *ZIndex) maybeMerge(parent *node) {
	total := 0
	for _, c := range parent.child {
		if c == nil {
			continue
		}
		if c.leaf == nil {
			return
		}
		total += c.leaf.n
	}
	if total > z.opts.LeafSize/4 {
		return
	}
	merged := make([]geom.Point, 0, total)
	for pos := 0; pos < 4; pos++ {
		if c := parent.child[pos]; c != nil {
			v := z.store.View(c.leaf.pid)
			merged = append(merged, v.Pts...)
			v.Release()
			z.store.Free(c.leaf.pid)
			parent.child[pos] = nil
		}
	}
	parent.leaf = newLeaf(z.store, parent.cell, merged)
	z.stats.PageMerges++
	z.structuralChange()
}

// structuralChange restores the derived structures after the tree shape
// changed: the leaf list (ords, prev/next) and, when skipping is enabled,
// the look-ahead pointers.
func (z *ZIndex) structuralChange() {
	z.rebuildLeafList()
	if !z.opts.DisableSkipping {
		z.rebuildLookahead()
	}
}

// Points returns all indexed points in leaf order. The slice is freshly
// allocated; mutating it does not affect the index. It is the natural input
// to a rebuild after workload drift.
func (z *ZIndex) Points() []geom.Point {
	return z.PointsAppend(make([]geom.Point, 0, z.count))
}

// PointsAppend appends all indexed points in leaf order to dst and returns
// the extended slice.
func (z *ZIndex) PointsAppend(dst []geom.Point) []geom.Point {
	for l := z.head; l != nil; l = l.next {
		v := z.store.View(l.pid)
		dst = append(dst, v.Pts...)
		v.Release()
	}
	return dst
}
