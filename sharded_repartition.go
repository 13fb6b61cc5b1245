package wazi

import (
	"time"

	"github.com/wazi-index/wazi/internal/shard"
)

// This file is the online repartitioner: the closed loop that keeps the
// GLOBAL partition plan — not just each shard's internal curve — tracking
// the observed workload. The per-shard RebuildAdvisor re-learns a drifted
// shard's index, but it cannot move the shard boundaries; when a hotspot
// migrates into territory the original plan packed into one big cold shard,
// that shard soaks up the whole hotspot alone while its neighbors idle.
// CheckRepartition watches the cross-shard load vector for exactly that
// skew, and Repartition re-learns a fresh Z-order plan from the live points
// and the aggregated recent-query windows, then migrates to it LIVE:
//
//  1. capture the serving snapshot — from here on every write lands in the
//     serving (old-plan) shards' deltas as usual;
//  2. outside the lock, stream the captured shards' points (old plan order),
//     learn the new plan, and build each new shard's index under the next
//     page-file epoch — readers keep serving the old snapshot untouched;
//  3. under the lock, rebase every old shard's writes since the capture
//     onto the new shards, routing each point with the NEW plan;
//  4. still under the lock, swap plan + shards + controls in one atomic
//     snapshot store, and retire the old plan's indexes (stats banked, page
//     stores parked for in-flight readers).
//
// Readers never block: a View pinned before the swap keeps routing with the
// old plan against the old shards; the first load after the swap sees the
// new pair. No write is lost: every write lands either in the captured
// snapshot (before capture) or in the delta the swap rebases (after).
//
// Rebuilds and repartitions exclude each other under s.mu (see
// rebuildShard); the rebased writes stay in the new shards' deltas until
// the new plan's control loop compacts them.

// repartitionMaxDrift is the plan-drift level — total-variation distance
// between the observed global workload histogram and the serving plan's
// training workload — beyond which CheckRepartition re-learns the plan even
// without load imbalance: clearly above the ~0.1 sampling noise of two
// windows drawn from one distribution, and at the low edge of real shifts —
// hotspot-shift's rank reversal measures ~0.3 even through ring sampling.
const repartitionMaxDrift = 0.25

// CheckRepartition asks the plan advisor whether the global workload has
// moved away from the serving plan far enough to justify re-learning it,
// and if so migrates live. Two signals trigger, either sufficing once
// enough load accumulated since the last check:
//
//   - cross-shard load imbalance (shard.Imbalance over the per-shard load
//     deltas): the hottest shard carries several times its fair share while
//     neighbors idle;
//   - plan drift: the total-variation distance between the global observed
//     workload histogram (the per-shard recent windows, aggregated) and the
//     histogram of the workload the serving plan was learned from — the
//     plan-level analogue of the per-shard RebuildAdvisor. Fan-out spreads
//     load, so a drifted hotspot can hide below the imbalance bar while
//     the spatial distribution has plainly moved; this signal catches it.
//
// It returns true when a migration completed. The background control loop
// calls this after every rebuild scan (unless WithoutAutoRepartition);
// tests and callers running WithoutAutoRebuild can call it directly.
func (s *Sharded) CheckRepartition() bool {
	s.mu.Lock()
	snap := s.snap.Load()
	if s.repartInFlight || s.closed {
		s.mu.Unlock()
		return false
	}
	if len(s.repartSeen) != len(snap.ctls) {
		// First check under this plan: the fresh ctls count from zero, so a
		// zero baseline makes the first delta the load since the plan began.
		s.repartSeen = make([]int64, len(snap.ctls))
	}
	// Back off after futile attempts: each consecutive no-op doubles the
	// load the advisor demands before trying again (capped at 64x).
	minLoad := int64(s.opts.repartitionMinLoad) << min(s.repartFutile, 6)
	// Judge skew over the shards that hold points: a structurally empty
	// shard cannot serve load and must not read as idleness, but a populated
	// shard sitting idle while a neighbor burns is exactly the signal.
	loads := make([]float64, 0, len(snap.ctls))
	var total int64
	cur := make([]int64, len(snap.ctls))
	for i, ctl := range snap.ctls {
		cur[i] = ctl.load.Load()
		d := cur[i] - s.repartSeen[i]
		total += d
		if snap.shards[i].live() > 0 {
			loads = append(loads, float64(d))
		}
	}
	if total < minLoad {
		s.mu.Unlock()
		return false
	}
	skew := shard.Imbalance(loads)
	planRef := s.planRef
	s.repartSeen = cur
	s.mu.Unlock()
	// The window collected for the drift test is handed on to the migration
	// itself — aggregating the rings copies up to windowSize rects per shard
	// under each ring's mutex, not worth doing twice.
	var window []Rect
	if skew < s.opts.repartitionMaxSkew {
		if planRef == nil {
			return false
		}
		window = aggregateWindows(snap)
		if histDrift(planRef, queryHist(snap.plan.Bounds(), window)) < repartitionMaxDrift {
			return false
		}
	}
	return s.repartition(window)
}

// aggregateWindows concatenates every shard's recent-query ring into the
// global observed workload. Queries spanning k shards appear k times, which
// weights them by the fan-out they actually cost — the load a re-learned
// plan should balance.
func aggregateWindows(snap *shardedSnapshot) []Rect {
	var window []Rect
	for _, ctl := range snap.ctls {
		window = append(window, ctl.recent.snapshot()...)
	}
	return window
}

// planHistSide is the resolution of the plan-level workload histogram.
const planHistSide = 16

// queryHist maps query centers onto a normalized planHistSide² histogram
// over bounds; nil for an empty window.
func queryHist(bounds Rect, window []Rect) []float64 {
	if len(window) == 0 {
		return nil
	}
	h := make([]float64, planHistSide*planHistSide)
	w := bounds.Width()
	ht := bounds.Height()
	if w <= 0 {
		w = 1
	}
	if ht <= 0 {
		ht = 1
	}
	for _, q := range window {
		c := q.Center()
		cx := clampCell(int((c.X - bounds.MinX) / w * planHistSide))
		cy := clampCell(int((c.Y - bounds.MinY) / ht * planHistSide))
		h[cy*planHistSide+cx]++
	}
	for i := range h {
		h[i] /= float64(len(window))
	}
	return h
}

func clampCell(c int) int {
	if c < 0 {
		return 0
	}
	if c >= planHistSide {
		return planHistSide - 1
	}
	return c
}

// histDrift is the total-variation distance between two normalized
// histograms (0 = identical, 1 = disjoint); 0 when either is missing.
func histDrift(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 || len(a) != len(b) {
		return 0
	}
	var tv float64
	for i := range a {
		tv += abs(a[i] - b[i])
	}
	return tv / 2
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Repartition re-learns the partition plan from the live point set and the
// shards' aggregated recent-query windows and migrates to it now,
// regardless of the imbalance advisor. It returns true when a migration
// completed, false when it was skipped: another migration or a shard
// rebuild is in flight, the index is closed or empty, or the freshly
// learned plan routes identically to the serving one (re-learning under an
// unchanged workload is a no-op).
func (s *Sharded) Repartition() bool { return s.repartition(nil) }

// repartition starts a migration, training the new plan on window when
// non-nil (CheckRepartition hands over the aggregate it already collected
// for the drift test) and on a fresh aggregation of the recent-query rings
// otherwise.
func (s *Sharded) repartition(window []Rect) bool {
	snap, window, ok := s.beginMigration(window)
	return ok && s.migrate(snap, window)
}

// beginMigration marks a migration in flight and returns the snapshot it
// starts from and its training window, or false when a migration or a
// shard rebuild is in flight or the index is closed.
func (s *Sharded) beginMigration(window []Rect) (*shardedSnapshot, []Rect, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.snap.Load()
	if s.repartInFlight || s.closed {
		return nil, nil, false
	}
	for _, ctl := range snap.ctls {
		if ctl.rebuilding {
			// A shard rebuild owns its slot's swap; let it finish and let
			// the control loop retry the migration on its next pass.
			return nil, nil, false
		}
	}
	if window == nil {
		window = aggregateWindows(snap)
	}
	s.repartInFlight = true
	return snap, window, true
}

// migrate runs steps 2–4 of the migration (see the file comment) against
// the captured snapshot. Callers have set repartInFlight; migrate clears it
// on every path. It returns whether the swap happened.
func (s *Sharded) migrate(snap *shardedSnapshot, window []Rect) bool {
	migrateStart := time.Now()
	abort := func() bool {
		s.mu.Lock()
		s.repartInFlight = false
		s.mu.Unlock()
		return false
	}

	// Stream the captured shards into the live point set, old-plan shard by
	// old-plan shard. Every captured structure is immutable copy-on-write,
	// so this holds no locks (on a disk backend it reads every page). The
	// points no index can hold stay out of the plan; rebase carries them.
	var pts []Point
	for _, ss := range snap.shards {
		pts = append(pts, materialize(ss)...)
	}
	if pts, _ = foldable(pts); len(pts) == 0 {
		return abort()
	}

	plan := shard.Partition(pts, window, s.opts.shards)
	if shard.Equal(snap.plan, plan) {
		s.mu.Lock()
		s.repartFutile++
		s.mu.Unlock()
		return abort()
	}

	// Build the new plan's shards under the next page-file epoch. Readers
	// are still serving the old snapshot; nothing here is visible yet. A
	// failed build (only a page-file creation can fail) keeps the old plan.
	next, err := s.buildShards(plan, window, snap.epoch+1, true)
	if err != nil {
		return abort()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.repartInFlight = false
	if s.closed {
		// Close won the race; the old snapshot stays authoritative (Close
		// already released its stores) and the new build is discarded.
		discardShards(next.shards)
		return false
	}

	// Rebase each old shard's writes since the capture (cur against snap)
	// onto the new shards, routed by the new plan: delta[0] collects each
	// new shard's inserts, delta[1] its tombstones. Writes never replace a
	// shard's idx, so cur's indexes are snap's. They retire: counters banked
	// so aggregate Stats never move backwards, page stores parked for
	// readers still on the old snapshot.
	cur := s.snap.Load()
	delta := [2][][]Point{make([][]Point, len(next.shards)), make([][]Point, len(next.shards))}
	for i, ss := range cur.shards {
		in, out := rebase(snap.shards[i], ss)
		for k, pts := range [2][]Point{in, out} {
			for _, p := range pts {
				j := plan.Locate(p)
				delta[k][j] = append(delta[k][j], p)
			}
		}
		if ss.idx != nil {
			s.retired = s.retired.Add(ss.idx.Stats().AtomicSnapshot())
			s.retireIndexStore(ss.idx)
		}
	}
	for j, ns := range next.shards {
		ns.withDelta(delta[0][j], delta[1][j])
	}
	s.snap.Store(next)
	s.planRef = queryHist(plan.Bounds(), window)
	s.repartSeen = nil // new plan, fresh load baseline
	s.repartFutile = 0
	s.repartitions.Add(1)
	if s.obs != nil {
		s.obs.Migration.ObserveSince(migrateStart)
	}
	return true
}
