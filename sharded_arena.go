package wazi

import (
	"sync"

	"github.com/wazi-index/wazi/internal/obs"
)

// queryArena is the reusable state of one fan-out read: the snapshot and
// phase clock it runs against and the list of shards it targets. Arenas are
// pooled, so a pooled arena re-pointed at a new query allocates nothing —
// not the target list, and not the interface value that makes the arena a
// kNN query's core.RangeSource — which TestQueryKernelAllocatesNothing
// holds to zero.
//
// An arena is owned by exactly one query, and so by one goroutine, from get
// to release: a fan-out is a loop over the targets on the caller.
type queryArena struct {
	s    *Sharded
	snap *shardedSnapshot
	r    Rect
	ph   *obs.Phases

	targets []int
}

var arenaPool = sync.Pool{New: func() any { return &queryArena{} }}

// getArena borrows an arena and points it at one query's snapshot and clock.
func (s *Sharded) getArena(snap *shardedSnapshot, ph *obs.Phases) *queryArena {
	a := arenaPool.Get().(*queryArena)
	a.s, a.snap, a.ph = s, snap, ph
	return a
}

// release returns the arena to the pool. The snapshot reference is cleared
// so a pooled arena never pins retired shard memory.
func (a *queryArena) release() {
	a.s, a.snap, a.ph = nil, nil, nil
	a.targets = a.targets[:0]
	arenaPool.Put(a)
}

// rectTargets points the arena at r and sets a.targets to the shards that
// can hold points inside it — MBR intersection refined by the occupancy
// bitmaps, which prune the many shards whose jagged Z-curve territory merely
// brushes r.
func (a *queryArena) rectTargets(r Rect) {
	a.r = r
	a.targets = a.targets[:0]
	for i, ss := range a.snap.shards {
		if ss.mayContain(r) {
			a.targets = append(a.targets, i)
		}
	}
}

// observeWorkload feeds the arena's rectangle to each target's drift advisor,
// recent-query window, and load counter. Range queries and counts are the
// workload the layout is learned from; the windows a kNN query probes with
// are not, and skip this.
func (a *queryArena) observeWorkload() {
	for _, i := range a.targets {
		ctl := a.snap.ctls[i]
		ctl.load.Add(1)
		if adv := ctl.advisor.Load(); adv != nil {
			adv.Observe(a.r)
		}
		ctl.recent.add(a.r)
	}
}

// scan appends the points of every target inside a.r to dst, shard by shard
// in plan order, each shard scanning straight into dst.
func (a *queryArena) scan(dst []Point) []Point {
	for _, si := range a.targets {
		t0, live := a.s.scanStart(a.ph)
		before := len(dst)
		dst = shardRange(a.snap.shards[si], a.r, dst)
		if live {
			a.s.endScan(a.ph, t0, len(dst)-before)
		}
	}
	return dst
}

// RangeQueryAppend makes the arena the core.RangeSource of a sharded kNN
// query: each window is pruned and scanned exactly like a range query.
func (a *queryArena) RangeQueryAppend(dst []Point, r Rect) []Point {
	a.rectTargets(r)
	return a.scan(dst)
}
