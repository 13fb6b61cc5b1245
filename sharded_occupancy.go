package wazi

// Fan-out pruning. A shard's key range is contiguous on the Z-curve but
// jagged in space, so its MBR vastly overstates where its points are — on
// skewed plans nearly every shard's MBR intersects nearly every query, and
// a fan-out pays a tree descent per false target. Each built shard index
// therefore carries a small occupancy bitmap: a 64×64 grid over the index's
// bounds marking the cells that hold at least one point. A query targets
// the shard only if it overlaps an occupied cell, which prunes the
// descents the MBR test cannot. The bitmap is built with the shard index
// and never changes (deletes never clear bits — stale occupancy is
// conservative, never wrong). The uncompacted insert buffer is covered
// separately by the shard snapshot's extraBounds MBR.

// occGridSide is the bitmap resolution; 64×64 = 4096 bits (64 words, 512
// bytes per shard) resolves regions finer than a hotspot — at 16×16 a big
// shard's sparse territory blurs into full cells and barely prunes.
const occGridSide = 64

// occupancy is the per-built-index cell bitmap. It is mutated only while
// it is built; afterwards it is read-only, like the index it describes.
type occupancy struct {
	frame Rect
	sat   bool // a point fell outside frame: every query may match
	bits  [64]uint64
}

// buildOccupancy maps pts onto the grid over frame. Callers pass the built
// index's bounds, which contain every point by construction.
func buildOccupancy(pts []Point, frame Rect) *occupancy {
	o := &occupancy{frame: frame}
	for _, p := range pts {
		o.add(p)
	}
	return o
}

// add marks p's cell, saturating if p lies outside the frame.
func (o *occupancy) add(p Point) {
	if o.sat {
		return
	}
	if p.X < o.frame.MinX || p.X > o.frame.MaxX || p.Y < o.frame.MinY || p.Y > o.frame.MaxY {
		o.sat = true
		return
	}
	c := o.cellX(p.X)*occGridSide + o.cellY(p.Y)
	o.bits[c>>6] |= 1 << (c & 63)
}

// overlaps reports whether q intersects any occupied cell — whether the
// shard's index can possibly hold a point inside q.
func (o *occupancy) overlaps(q Rect) bool {
	if o.sat {
		return true
	}
	c := q.Intersect(o.frame)
	if !c.Valid() {
		return false
	}
	x0, x1 := o.cellX(c.MinX), o.cellX(c.MaxX)
	y0, y1 := o.cellY(c.MinY), o.cellY(c.MaxY)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			c := x*occGridSide + y
			if o.bits[c>>6]&(1<<(c&63)) != 0 {
				return true
			}
		}
	}
	return false
}

func (o *occupancy) cellX(v float64) int {
	return occCell(v, o.frame.MinX, o.frame.MaxX)
}

func (o *occupancy) cellY(v float64) int {
	return occCell(v, o.frame.MinY, o.frame.MaxY)
}

// occCell maps v in [lo, hi] to a grid cell, clamping the boundaries (the
// frame's max edge belongs to the last cell).
func occCell(v, lo, hi float64) int {
	if hi <= lo {
		return 0
	}
	c := int(float64(occGridSide) * (v - lo) / (hi - lo))
	if c < 0 {
		return 0
	}
	if c >= occGridSide {
		return occGridSide - 1
	}
	return c
}
