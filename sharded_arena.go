package wazi

import (
	"slices"
	"sync"

	"github.com/wazi-index/wazi/internal/obs"
)

// maxArenaPoints bounds the per-slot capacity an arena carries back into the
// pool. One pathological query (a full-domain range over a huge dataset) must
// not pin its high-water buffers forever, so slots that grew past this are
// dropped at release and rebuilt lazily; everything below it is retained,
// which is what makes steady-state reads allocation-free.
const maxArenaPoints = 1 << 16

// queryArena is the reusable state of one fan-out read: the target list, one
// scratch buffer per target for parallel workers to append into, and the
// count slots. Arenas are pooled, and the per-query worker closures (rangeFn,
// countFn) are bound once when the arena is created — a pooled arena
// re-pointed at a new query therefore allocates nothing, which is the
// property the kernel-allocs experiment ratchets.
//
// An arena is owned by exactly one query from get to release. During a
// pool.Run fan-out its slices are shared across workers, but each worker
// touches only its own index, so the only synchronization needed is Run's
// own completion barrier.
type queryArena struct {
	s    *Sharded
	snap *shardedSnapshot
	r    Rect
	tr   *obs.QueryTrace

	targets []int
	bufs    [][]Point
	counts  []int

	rangeFn func(int)
	countFn func(int)
}

var arenaPool = sync.Pool{New: func() any {
	a := &queryArena{}
	a.rangeFn = func(ti int) {
		si := a.targets[ti]
		t0, live := a.s.scanStart(a.tr)
		dst := shardRange(a.snap.shards[si], a.r, a.bufs[ti][:0])
		if live {
			a.s.endScan(a.tr, si, t0, len(dst))
		}
		a.bufs[ti] = dst
	}
	a.countFn = func(ti int) {
		si := a.targets[ti]
		t0, live := a.s.scanStart(a.tr)
		n := shardCount(a.snap.shards[si], a.r)
		if live {
			a.s.endScan(a.tr, si, t0, n)
		}
		a.counts[ti] = n
	}
	return a
}}

// getArena borrows an arena and points it at one query's snapshot and trace.
func (s *Sharded) getArena(snap *shardedSnapshot, tr *obs.QueryTrace) *queryArena {
	a := arenaPool.Get().(*queryArena)
	a.s, a.snap, a.tr = s, snap, tr
	return a
}

// release truncates the arena's buffers (dropping oversized ones, see
// maxArenaPoints) and returns it to the pool. The snapshot reference is
// cleared so a pooled arena never pins retired shard memory.
func (a *queryArena) release() {
	a.s, a.snap, a.tr = nil, nil, nil
	a.targets = a.targets[:0]
	bufs := a.bufs[:cap(a.bufs)]
	for i := range bufs {
		if cap(bufs[i]) > maxArenaPoints {
			bufs[i] = nil
		} else {
			bufs[i] = bufs[i][:0]
		}
	}
	arenaPool.Put(a)
}

// ensure sizes the per-target slots for n targets, preserving buffers grown
// by earlier queries.
func (a *queryArena) ensure(n int) {
	if cap(a.bufs) < n {
		nb := make([][]Point, n)
		copy(nb, a.bufs[:cap(a.bufs)])
		a.bufs = nb
	}
	a.bufs = a.bufs[:n]
	if cap(a.counts) < n {
		a.counts = make([]int, n)
	}
	a.counts = a.counts[:n]
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

// scan appends the points of every target inside a.r to dst: inline when
// there is no parallelism to harvest, else one pool worker per target.
func (a *queryArena) scan(dst []Point) []Point {
	n := len(a.targets)
	if n == 0 {
		return dst
	}
	if n == 1 || a.s.pool.Inline() {
		// Scan straight into dst, skipping the per-target buffers and the
		// merge copy.
		for _, si := range a.targets {
			t0, live := a.s.scanStart(a.tr)
			before := len(dst)
			dst = shardRange(a.snap.shards[si], a.r, dst)
			if live {
				a.s.endScan(a.tr, si, t0, len(dst)-before)
			}
		}
		return dst
	}
	a.ensure(n)
	a.s.pool.Run(n, a.rangeFn)
	total := 0
	for _, buf := range a.bufs {
		total += len(buf)
	}
	dst = slices.Grow(dst, total)
	for _, buf := range a.bufs {
		dst = append(dst, buf...)
	}
	return dst
}

// RangeQueryAppend makes the arena the core.RangeSource of a sharded kNN
// query: each window is pruned and scanned exactly like a range query.
func (a *queryArena) RangeQueryAppend(dst []Point, r Rect) []Point {
	a.rectTargets(r)
	return a.scan(dst)
}
