package wazi

import (
	"cmp"
	"math"
	"slices"

	"github.com/wazi-index/wazi/internal/geom"
)

// This file is a shard's delta: the writes since its index was built, kept
// as two runs of one type — extra, one entry per buffered insert, and dead,
// one entry per tombstoned copy of an indexed point — until compaction
// folds them into the next index. Following HIRE, a run is a plain sorted
// run, not another model. ARCHITECTURE.md ("Data flow: serve") has the design.
//
// The delta is also a rebuild's and a migration's catch-up log: the writes
// that landed while one ran are the difference between the shard's delta
// at its capture and at its swap (rebase).

// deltaTail bounds a run's unsorted tail: it holds fewer than deltaTail
// points, so a lookup scans at most deltaTail−1 after its binary search.
const deltaTail = 8

// deltaRun is a multiset of points: pts[:sorted] in geom.CmpXY order, which
// keeps the < and <= predicates of the searches monotone, then a tail in
// arrival order.
//
// Snapshots share a run's backing array. add appends past the end of the
// newest snapshot's run, which no older snapshot reads; that is safe because
// only the newest run is ever extended, under Sharded.mu. Every other change
// builds a fresh array: no path reslices a run shorter in place or reorders
// entries a snapshot can see.
type deltaRun struct {
	pts    []Point
	sorted int
}

func (d deltaRun) size() int { return len(d.pts) }

// add returns the run with p added: an append to the tail in place, and once
// the tail is full, a merge into a fresh sorted run with room for the next.
func (d deltaRun) add(p Point) deltaRun {
	d.pts = append(d.pts, p)
	if len(d.pts)-d.sorted < deltaTail {
		return d
	}
	var buf [deltaTail]Point
	tail := append(buf[:0], d.pts[d.sorted:]...)
	slices.SortFunc(tail, geom.CmpXY)
	out, head := make([]Point, 0, len(d.pts)+deltaTail), d.pts[:d.sorted]
	for _, q := range tail {
		k, _ := slices.BinarySearchFunc(head, q, geom.CmpXY)
		out, head = append(append(out, head[:k]...), q), head[k:]
	}
	return deltaRun{pts: append(out, head...), sorted: len(d.pts)}
}

// without returns the run less one entry equal to p, in a fresh array, and
// whether there was one.
func (d deltaRun) without(p Point) (deltaRun, bool) {
	n, j := d.count(p)
	if n == 0 {
		return d, false
	}
	out := make([]Point, 0, len(d.pts)-1+deltaTail)
	out = append(append(out, d.pts[:j]...), d.pts[j+1:]...)
	if j < d.sorted {
		d.sorted--
	}
	return deltaRun{pts: out, sorted: d.sorted}, true
}

// count returns how many entries equal p, and the index of one of them.
func (d deltaRun) count(p Point) (n, at int) {
	s := d.pts[:d.sorted]
	for i := geom.LowerX(s, p.X); i < len(s) && s[i].X == p.X; i++ {
		if s[i] == p {
			n, at = n+1, i
		}
	}
	for i := d.sorted; i < len(d.pts); i++ {
		if d.pts[i] == p {
			n, at = n+1, i
		}
	}
	return n, at
}

// slab returns the prefix entries whose X lies in [r.MinX, r.MaxX]: the
// only ones of the prefix that can lie inside r.
func (d deltaRun) slab(r Rect) []Point {
	s := d.pts[:d.sorted]
	s = s[geom.LowerX(s, r.MinX):]
	return s[:geom.UpperX(s, r.MaxX)]
}

// appendInside appends the entries inside r to dst.
func (d deltaRun) appendInside(dst []Point, r Rect) []Point {
	return geom.AppendInside(geom.AppendInside(dst, d.slab(r), r), d.pts[d.sorted:], r)
}

// countInside returns how many entries lie inside r.
func (d deltaRun) countInside(r Rect) int {
	return geom.CountInside(d.slab(r), r) + geom.CountInside(d.pts[d.sorted:], r)
}

// dropDead removes from dst[from:] — the shard index's answer over r — one
// copy of p for every entry p of d, the shard's tombstones, inside r. Most
// reads meet no tombstone inside r and return at once; otherwise only the
// results whose bit is set in a 64-bit mask of those tombstones are looked
// up (an MBR of them lets most of a large answer through). The copies
// removed so far gather in dst[out:i] as the loop swaps kept points
// forward, so "at most c copies of p" is a count over that window.
func (d deltaRun) dropDead(dst []Point, from int, r Rect) []Point {
	var mask uint64
	for _, part := range [2][]Point{d.slab(r), d.pts[d.sorted:]} {
		for _, p := range part {
			if r.Contains(p) {
				mask |= pointBit(p)
			}
		}
	}
	if mask == 0 {
		return dst
	}
	out := from
	for i := from; i < len(dst); i++ {
		p := dst[i]
		if mask&pointBit(p) != 0 {
			if c, _ := d.count(p); c > 0 {
				removed, _ := deltaRun{pts: dst[out:i]}.count(p) // no sorted prefix: a scan
				if removed < c {
					continue
				}
			}
		}
		dst[out], dst[i] = p, dst[out]
		out++
	}
	return dst[:out]
}

// rebase returns the writes that turned captured into serving, one shard's
// states at a rebuild's or a migration's capture and at its swap, as the
// delta of an index built from foldable(materialize(captured)): ins to
// buffer and outs to tombstone. Writes never replace a shard's idx, so the
// two states differ in their runs alone. rebase counts each value by its
// exact bits as serving's extra − captured's extra − serving's dead +
// captured's dead; positive counts are inserts and negative ones deletes.
// A negative count is a copy live at the capture, so the new index holds
// it, as a tombstone requires. The captured inserts the index cannot hold
// are carried over as inserts.
func rebase(captured, serving *shardSnap) (ins, outs []Point) {
	type signed struct {
		p Point
		n int
	}
	var es []signed
	add := func(pts []Point, n int) {
		for _, p := range pts {
			es = append(es, signed{p, n})
		}
	}
	_, rest := foldable(captured.extra.pts)
	add(rest, 1)
	if captured != serving {
		add(serving.extra.pts, 1)
		add(captured.extra.pts, -1)
		add(serving.dead.pts, -1)
		add(captured.dead.pts, 1)
	}
	slices.SortFunc(es, func(a, b signed) int { return cmpBits(a.p, b.p) })
	for i := 0; i < len(es); {
		n, p := 0, es[i].p
		for ; i < len(es) && cmpBits(es[i].p, p) == 0; i++ {
			n += es[i].n
		}
		for ; n > 0; n-- {
			ins = append(ins, p)
		}
		for ; n < 0; n++ {
			outs = append(outs, p)
		}
	}
	return ins, outs
}

// buffer adds p to the insert run of ss, a state no reader sees yet, and
// grows its MBRs over p.
func (ss *shardSnap) buffer(p Point) {
	ss.bounds = extendBounds(ss.bounds, ss.empty, p)
	ss.extraBounds = extendBounds(ss.extraBounds, ss.extra.size() == 0, p)
	ss.extra = ss.extra.add(p)
	ss.empty = false
}

// withDelta gives ss, a state no reader sees yet, ins as its insert run
// and outs as its tombstone run, and grows its MBRs over ins.
func (ss *shardSnap) withDelta(ins, outs []Point) {
	slices.SortFunc(ins, geom.CmpXY)
	slices.SortFunc(outs, geom.CmpXY)
	ss.extra = deltaRun{pts: ins, sorted: len(ins)}
	ss.dead = deltaRun{pts: outs, sorted: len(outs)}
	for k, p := range ins {
		ss.bounds = extendBounds(ss.bounds, ss.empty, p)
		ss.empty = false
		ss.extraBounds = extendBounds(ss.extraBounds, k == 0, p)
	}
}

// foldable splits pts into the points a learned shard index can hold, the
// finite ones, and the rest, which their shard serves from its insert run.
func foldable(pts []Point) (fold, rest []Point) {
	for _, p := range pts {
		if p.Finite() {
			fold = append(fold, p)
		} else {
			rest = append(rest, p)
		}
	}
	return fold, rest
}

// cmpBits refines geom.CmpXY into a total order on exact bits, which tells −0
// from +0 and one NaN from another.
func cmpBits(a, b Point) int {
	return cmp.Or(geom.CmpXY(a, b), cmp.Compare(math.Float64bits(a.X), math.Float64bits(b.X)),
		cmp.Compare(math.Float64bits(a.Y), math.Float64bits(b.Y)))
}

// pointBit hashes p's value to one of 64 bits; points equal under ==, −0
// and +0 included, share a bit.
func pointBit(p Point) uint64 {
	h := math.Float64bits(p.X+0)*0x9e3779b97f4a7c15 ^ math.Float64bits(p.Y+0)*0xc2b2ae3d27d4eb4f
	return 1 << (h >> 58)
}

// everywhere contains every point without a NaN coordinate.
var everywhere = Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}

// extendBounds returns the MBR b extended by p, starting when fresh from the
// MBR of nothing, which intersects no rectangle. A point with a NaN
// coordinate lies inside no rectangle and extends nothing; folded in, it
// would make every later Intersects false.
func extendBounds(b Rect, fresh bool, p Point) Rect {
	if fresh {
		b = Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	}
	if p.X != p.X || p.Y != p.Y {
		return b
	}
	return b.ExtendPoint(p)
}
