package core

import (
	"time"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/storage"
)

// Query processing accumulates its access counters into a stack-local
// storage.Stats and flushes it once per query with Stats.AtomicAdd. That
// keeps the hot loops free of atomic operations while making a built index
// safe to query from many goroutines at once — the property the sharded
// serving layer in the root package depends on. Update paths (update.go)
// still write counters directly: structural mutation requires exclusive
// access anyway.

// treeTraversal descends to the leaf whose cell contains p (Algorithm 1).
// It returns nil when the path reaches an empty quadrant (no leaf exists
// there). Visited nodes are counted into d.
func (z *ZIndex) treeTraversal(p geom.Point, d *storage.Stats) *Leaf {
	n := z.root
	for n != nil && n.leaf == nil {
		d.NodesVisited++
		pos := n.order.Pos(geom.QuadrantOf(p, n.split))
		n = n.child[pos]
	}
	if n == nil {
		return nil
	}
	return n.leaf
}

// lowerBoundLeaf returns the first leaf in Ord whose cell could contain p or
// any point dominating p's cell position — the "low" extreme of Algorithm 2.
// When the quadrant containing p is empty, the next non-empty quadrant in
// the ordering is used.
func (z *ZIndex) lowerBoundLeaf(p geom.Point, d *storage.Stats) *Leaf {
	return lowerBound(z.root, p, &d.NodesVisited)
}

func lowerBound(n *node, p geom.Point, visited *int64) *Leaf {
	if n == nil {
		return nil
	}
	if n.leaf != nil {
		return n.leaf
	}
	*visited++
	pos := n.order.Pos(geom.QuadrantOf(p, n.split))
	if l := lowerBound(n.child[pos], p, visited); l != nil {
		return l
	}
	for i := pos + 1; i < 4; i++ {
		if l := firstLeaf(n.child[i]); l != nil {
			return l
		}
	}
	return nil
}

// upperBoundLeaf returns the last leaf in Ord whose cell could contain p or
// any point dominated by p's cell position — the "high" extreme of
// Algorithm 2.
func (z *ZIndex) upperBoundLeaf(p geom.Point, d *storage.Stats) *Leaf {
	return upperBound(z.root, p, &d.NodesVisited)
}

func upperBound(n *node, p geom.Point, visited *int64) *Leaf {
	if n == nil {
		return nil
	}
	if n.leaf != nil {
		return n.leaf
	}
	*visited++
	pos := n.order.Pos(geom.QuadrantOf(p, n.split))
	if l := upperBound(n.child[pos], p, visited); l != nil {
		return l
	}
	for i := pos - 1; i >= 0; i-- {
		if l := lastLeaf(n.child[i]); l != nil {
			return l
		}
	}
	return nil
}

func firstLeaf(n *node) *Leaf {
	if n == nil {
		return nil
	}
	if n.leaf != nil {
		return n.leaf
	}
	for i := 0; i < 4; i++ {
		if l := firstLeaf(n.child[i]); l != nil {
			return l
		}
	}
	return nil
}

func lastLeaf(n *node) *Leaf {
	if n == nil {
		return nil
	}
	if n.leaf != nil {
		return n.leaf
	}
	for i := 3; i >= 0; i-- {
		if l := lastLeaf(n.child[i]); l != nil {
			return l
		}
	}
	return nil
}

// PointQuery reports whether the index contains a point equal to p.
func (z *ZIndex) PointQuery(p geom.Point) bool {
	var d storage.Stats
	d.PointQueries = 1
	defer func() { z.stats.AtomicAdd(d) }()
	if !z.bounds.Contains(p) {
		return false
	}
	// Point lookups count toward the cache's workload histogram too, so a
	// point-query hot set enjoys the same eviction protection as a range
	// hot set.
	z.store.ObserveQuery(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
	l := z.treeTraversal(p, &d)
	if l == nil {
		return false
	}
	d.PagesScanned++
	d.PointsScanned += int64(l.n)
	v := z.store.View(l.pid)
	found := v.Contains(p)
	v.Release()
	return found
}

// leafCursor walks the leaf-list interval [low, high] of a query, yielding
// only leaves whose bounds intersect the query rectangle and advancing via
// look-ahead jumps when enabled. It is the single definition of the
// projection walk shared by RangeQueryAppend, RangeCount, and
// RangeQueryPhased, so the three paths count NodesVisited, BBChecked, and
// LookaheadJumps identically — the property indextest's StatsExactness
// subtest pins. The cursor lives on the caller's stack; iterating it
// allocates nothing.
type leafCursor struct {
	z       *ZIndex
	r       geom.Rect
	p       *Leaf
	highOrd int
	useSkip bool
	d       *storage.Stats
}

// leafScan positions a cursor on the leaf interval covering clipped; r is
// the unclipped rectangle leaves are tested against. When the interval is
// empty the returned cursor is exhausted immediately.
func (z *ZIndex) leafScan(clipped, r geom.Rect, d *storage.Stats) leafCursor {
	c := leafCursor{z: z, r: r, useSkip: !z.opts.DisableSkipping, d: d}
	low := z.lowerBoundLeaf(clipped.BL(), d)
	high := z.upperBoundLeaf(clipped.TR(), d)
	if low != nil && high != nil && low.ord <= high.ord {
		c.p, c.highOrd = low, high.ord
	}
	return c
}

// next returns the next leaf whose bounds intersect the query rectangle, or
// nil when the interval is exhausted.
func (c *leafCursor) next() *Leaf {
	p := c.p
	for p != nil && p.ord <= c.highOrd {
		c.d.BBChecked++
		if p.bounds.Intersects(c.r) {
			c.p = p.next
			return p
		}
		if c.useSkip {
			p = c.z.followLookahead(p, c.r, c.d)
		} else {
			p = p.next
		}
	}
	c.p = nil
	return nil
}

// RangeQuery returns all indexed points inside the closed rectangle r
// (Algorithm 2, with the §5 skipping mechanism when enabled).
func (z *ZIndex) RangeQuery(r geom.Rect) []geom.Point {
	return z.RangeQueryAppend(nil, r)
}

// RangeQueryAppend appends the points inside r to dst and returns the
// extended slice, avoiding per-query allocations for callers that reuse
// buffers.
func (z *ZIndex) RangeQueryAppend(dst []geom.Point, r geom.Rect) []geom.Point {
	var d storage.Stats
	d.RangeQueries = 1
	defer func() { z.stats.AtomicAdd(d) }()
	clipped := r.Intersect(z.bounds)
	if !clipped.Valid() {
		return dst
	}
	// Feed the page store's workload histogram (workload-aware cache
	// eviction for the disk backend; a no-op in RAM).
	z.store.ObserveQuery(clipped)
	before := len(dst)
	cur := z.leafScan(clipped, r, &d)
	for p := cur.next(); p != nil; p = cur.next() {
		d.PagesScanned++
		d.PointsScanned += int64(p.n)
		// Borrowed view, released before the cursor advances: on the disk
		// backend this scans the page's bytes in place (block cache or file
		// mapping) without decoding a copy.
		v := z.store.View(p.pid)
		dst = p.appendInside(dst, v.Pts, r)
		v.Release()
	}
	d.ResultPoints += int64(len(dst) - before)
	return dst
}

// slab is the one per-leaf filter of the range paths: the part of leaf l's
// run (pts[:l.sorted] of its page pts) with X in [r.MinX, r.MaxX], cut only
// on a side where the cell sticks out past r, and whether all of it lies
// inside r, as it does when r spans the cell in Y.
func (l *Leaf) slab(pts []geom.Point, r geom.Rect) (s []geom.Point, all bool) {
	s = pts[:l.sorted]
	if l.bounds.MinX < r.MinX {
		s = s[geom.LowerX(s, r.MinX):]
	}
	if l.bounds.MaxX > r.MaxX {
		s = s[:geom.UpperX(s, r.MaxX)]
	}
	return s, r.MinY <= l.bounds.MinY && l.bounds.MaxY <= r.MaxY
}

// appendInside appends the points of leaf l's page pts inside r to dst: the
// slab, bulk-copied when r spans the cell in Y, then the tail.
func (l *Leaf) appendInside(dst, pts []geom.Point, r geom.Rect) []geom.Point {
	if s, all := l.slab(pts, r); all {
		dst = append(dst, s...)
	} else {
		dst = geom.AppendInside(dst, s, r)
	}
	return geom.AppendInside(dst, pts[l.sorted:], r)
}

// countInside is appendInside as a count; it reads no point of a slab r
// spans in Y.
func (l *Leaf) countInside(pts []geom.Point, r geom.Rect) int {
	s, all := l.slab(pts, r)
	n := len(s)
	if !all {
		n = geom.CountInside(s, r)
	}
	return n + geom.CountInside(pts[l.sorted:], r)
}

// followLookahead picks, among the criteria disqualifying p for query r,
// the look-ahead pointer that jumps farthest in Ord (§5.1). A nil pointer
// means no later leaf can satisfy that criterion, so the scan terminates.
func (z *ZIndex) followLookahead(p *Leaf, r geom.Rect, d *storage.Stats) *Leaf {
	next := p.next
	jumped := false
	consider := func(c Criterion) {
		t := p.la[c]
		if t == nil {
			next = nil
			jumped = true
			return
		}
		if next == nil {
			return // an earlier criterion already terminated the scan
		}
		if t.ord > next.ord {
			next = t
			jumped = true
		}
	}
	if p.bounds.MaxY < r.MinY {
		consider(Below)
	}
	if next != nil && p.bounds.MinY > r.MaxY {
		consider(Above)
	}
	if next != nil && p.bounds.MaxX < r.MinX {
		consider(Left)
	}
	if next != nil && p.bounds.MinX > r.MaxX {
		consider(Right)
	}
	if jumped {
		d.LookaheadJumps++
	}
	return next
}

// RangeQueryPhased runs a range query in two explicitly separated phases
// and returns their wall-clock durations: projection (index traversal plus
// the leaf-interval walk deciding which pages overlap, including skipping)
// and scan (filtering points from overlapping pages). Figure 9 of the paper
// reports exactly this split. The result set is identical to RangeQuery's.
func (z *ZIndex) RangeQueryPhased(r geom.Rect) (pts []geom.Point, projection, scan time.Duration) {
	var d storage.Stats
	d.RangeQueries = 1
	defer func() { z.stats.AtomicAdd(d) }()
	clipped := r.Intersect(z.bounds)
	if !clipped.Valid() {
		return nil, 0, 0
	}
	z.store.ObserveQuery(clipped)
	start := time.Now()
	var overlapping []*Leaf
	cur := z.leafScan(clipped, r, &d)
	for p := cur.next(); p != nil; p = cur.next() {
		overlapping = append(overlapping, p)
	}
	projection = time.Since(start)

	start = time.Now()
	for _, p := range overlapping {
		d.PagesScanned++
		d.PointsScanned += int64(p.n)
		v := z.store.View(p.pid)
		pts = p.appendInside(pts, v.Pts, r)
		v.Release()
	}
	scan = time.Since(start)
	d.ResultPoints += int64(len(pts))
	return pts, projection, scan
}

// RangeCount returns the number of points inside r without materializing
// them.
func (z *ZIndex) RangeCount(r geom.Rect) int {
	var d storage.Stats
	d.RangeQueries = 1
	defer func() { z.stats.AtomicAdd(d) }()
	clipped := r.Intersect(z.bounds)
	if !clipped.Valid() {
		return 0
	}
	z.store.ObserveQuery(clipped)
	count := 0
	cur := z.leafScan(clipped, r, &d)
	for p := cur.next(); p != nil; p = cur.next() {
		d.PagesScanned++
		d.PointsScanned += int64(p.n)
		v := z.store.View(p.pid)
		count += p.countInside(v.Pts, r)
		v.Release()
	}
	d.ResultPoints += int64(count)
	return count
}
