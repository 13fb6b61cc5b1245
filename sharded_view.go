package wazi

import "github.com/wazi-index/wazi/internal/obs"

// View is a read-only handle pinned to one immutable snapshot of a Sharded
// index. Every query on a View observes exactly the state that existed when
// the View was taken — writes, compactions, and rebuilds that land afterwards
// are invisible to it — so a group of reads executed against one View forms
// a single consistent snapshot pass. That is what the serving layer's
// /v1/batch endpoint uses to make a mixed request's reads mutually
// consistent.
//
// A View is cheap (one atomic pointer load), never blocks or is blocked by
// writers, and is safe for concurrent use. It holds the snapshot's memory
// live for as long as it is referenced, so Views are meant to be short-lived:
// take one per batch, drop it when the batch completes.
//
// Queries through a View still feed the per-shard drift advisors and
// recent-query windows, and still count in Stats — a read through a View is
// a served read.
type View struct {
	s    *Sharded
	snap *shardedSnapshot
	// ph, when set via SetPhases, receives the scan and page-store time and
	// the work counts of every query run through this handle.
	ph *obs.Phases
}

// View pins the current snapshot and returns a read-only handle to it.
func (s *Sharded) View() *View {
	return &View{s: s, snap: s.snap.Load()}
}

// SetPhases makes the View's queries clock their shard scans and page-store
// reads into ph. It is for the one request that pinned the View and owns ph:
// neither is synchronized. Nil, the default, leaves queries untimed.
func (v *View) SetPhases(ph *obs.Phases) { v.ph = ph }

// RangeQuery returns all points inside r as of the pinned snapshot.
func (v *View) RangeQuery(r Rect) []Point {
	v.s.rangeQs.Add(1)
	return v.s.rangeAppendFromSnap(nil, v.snap, r, v.ph)
}

// RangeQueryAppend appends the points inside r to dst as of the pinned
// snapshot — the buffer-reusing form the serving layer cycles its pooled
// response buffers through.
func (v *View) RangeQueryAppend(dst []Point, r Rect) []Point {
	v.s.rangeQs.Add(1)
	return v.s.rangeAppendFromSnap(dst, v.snap, r, v.ph)
}

// RangeCount returns the number of points inside r as of the pinned
// snapshot.
func (v *View) RangeCount(r Rect) int {
	v.s.rangeQs.Add(1)
	return v.s.countFromSnap(v.snap, r, v.ph)
}

// PointQuery reports whether p was indexed as of the pinned snapshot.
func (v *View) PointQuery(p Point) bool {
	v.s.pointQs.Add(1)
	return v.s.pointFromSnap(v.snap, p, v.ph)
}

// KNN returns the k points nearest to q, closest first, as of the pinned
// snapshot.
func (v *View) KNN(q Point, k int) []Point {
	v.s.knnQs.Add(1)
	return v.s.knnAppendFromSnap(nil, v.snap, q, k, v.ph)
}

// KNNAppend appends the k points nearest to q to dst, closest first, as of
// the pinned snapshot.
func (v *View) KNNAppend(dst []Point, q Point, k int) []Point {
	v.s.knnQs.Add(1)
	return v.s.knnAppendFromSnap(dst, v.snap, q, k, v.ph)
}

// Len returns the number of points the pinned snapshot serves.
func (v *View) Len() int {
	n := 0
	for _, ss := range v.snap.shards {
		n += ss.live()
	}
	return n
}
