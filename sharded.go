package wazi

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wazi-index/wazi/internal/core"
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/obs"
	"github.com/wazi-index/wazi/internal/shard"
	"github.com/wazi-index/wazi/internal/storage"
	"github.com/wazi-index/wazi/internal/wal"
)

// Sharded is the serving-layer counterpart of Index: it partitions the data
// across N per-shard WaZI indexes with a workload-aware Z-order partitioner
// (hotspot regions get more, smaller shards), executes queries by fanning
// out over only the shards whose bounds intersect the query, and adapts
// to workload drift by rebuilding drifted shards in the background and
// hot-swapping them in.
//
// The read data path is lock-free: every query loads an immutable snapshot
// through an atomic pointer, so writes, compactions, and rebuilds never
// block readers. (Drift monitoring is the one exception: each query takes
// a short per-shard mutex to update the advisor's histogram, and a sampled
// one for the recent-query ring.)
// Writes are serialized among themselves and land in a small per-shard delta
// of sorted runs (sharded_delta.go) that background compaction folds into
// the shard's index. This is the deployment model of §6.5 — build offline,
// serve online — extended with the zero-downtime adaptation the paper
// leaves as future work: each shard's RebuildAdvisor watches its observed
// queries, and once drift crosses the Figure 12 crossover threshold the
// shard is rebuilt with NewWorkloadAware on the recent query window and
// swapped in atomically.
type Sharded struct {
	snap atomic.Pointer[shardedSnapshot]
	mu   sync.Mutex // serializes writers, compactions, and snapshot swaps
	opts shardedConfig

	// obs holds the hot-path instruments (fan-out, scan/rebuild/migration
	// latency, page reads); nil under WithoutObservability.
	obs *ShardedObs

	// Online repartitioning state (all guarded by mu). While a migration is
	// in flight, writes land in the serving (old-plan) shards' deltas as
	// usual; at the swap the migration rebases them onto the new-plan shards
	// (sharded_repartition.go).
	repartInFlight bool
	// repartSeen holds the per-shard load totals at the last CheckRepartition
	// pass, so the advisor judges imbalance on load deltas, not lifetime sums.
	repartSeen []int64
	// repartFutile counts consecutive advisor-triggered migrations that
	// learned an Equal plan and no-opped. Each futile attempt costs a full
	// materialize (every page of every shard on the disk backend), so the
	// advisor backs off exponentially: a workload that is permanently
	// skewed but already optimally partitioned (e.g. every query on one
	// cell — some shard must own it) would otherwise re-learn and discard
	// the same plan every repartitionMinLoad queries forever.
	repartFutile int
	// planRef is the normalized histogram of the workload the serving plan
	// was learned from — the reference the plan-drift trigger compares the
	// aggregated live windows against. Nil when the plan was learned without
	// a workload (drift is then judged by imbalance alone).
	planRef []float64

	// Logical operation counters, maintained at this layer because shard
	// counters tally per-shard work, not per-caller operations.
	rangeQs      atomic.Int64
	pointQs      atomic.Int64
	knnQs        atomic.Int64
	inserts      atomic.Int64
	deletes      atomic.Int64
	rebuilds     atomic.Int64
	repartitions atomic.Int64

	// retired accumulates the final counters of shard indexes replaced by
	// compaction or rebuild, so aggregate Stats never move backwards.
	// Guarded by mu.
	retired Stats

	// retiredStores are page stores of disk-backed shard indexes replaced
	// by rebuilds. They stay open (with dropped caches) so that readers
	// still holding the old snapshot can finish, and their files stay on
	// disk so that a snapshot Saved concurrently with the rebuild remains
	// warm-startable; Close (or, past maxRetiredStores, garbage
	// collection) releases the descriptors and the next start's
	// stale-file sweep reclaims the files. Guarded by mu.
	retiredStores []io.Closer

	// Write-ahead log state (see sharded_wal.go). wal is set once during
	// construction and never replaced; walRecovering suppresses re-logging
	// while the startup replay drives ops through the public write path;
	// walBuf is the append scratch buffer (guarded by mu); lastSaveCut is
	// the log position the most recent Save captured, the only cut
	// TruncateWAL will truncate at.
	wal           *wal.WAL
	walRecovering bool
	walRecovered  wal.ReplayStats
	walBuf        []byte
	lastSaveCut   atomic.Uint64

	loop   chan struct{} // closed to stop the rebuild loop; nil when disabled
	kicked chan struct{} // nudges the loop when a backlog crosses the threshold
	wg     sync.WaitGroup
	closed bool
}

// shardedSnapshot is the immutable world a query runs against. The
// partition plan and the per-shard control blocks travel WITH the snapshot:
// an online repartition replaces plan, shards, and ctls in one atomic swap,
// so a reader (or a pinned View) always routes with the plan that matches
// the shard array it sees — old-plan readers keep routing against the old
// pair mid-migration, new-plan readers against the new. The ctl objects
// themselves are mutable (advisors, rings, load counters); only the slice
// and its pairing with the plan are immutable per snapshot.
type shardedSnapshot struct {
	plan   *shard.Plan
	shards []*shardSnap
	ctls   []*shardCtl
	// epoch counts completed repartitions; it versions the page-file
	// namespace so a migration's fresh shard files never collide with the
	// retiring plan's.
	epoch int
}

// shardSnap is one shard's immutable state: a built index (nil while the
// shard holds only buffered writes) and its delta, two sorted runs
// (sharded_delta.go). Writers build a new shardSnap and swap the snapshot;
// a run's entries, once published, never change, so readers never see a
// mutation.
type shardSnap struct {
	idx    *Index   // immutable once published; nil for an empty shard
	extra  deltaRun // inserts not yet compacted into idx, one entry each
	dead   deltaRun // tombstones against idx, one entry per deleted copy
	bounds Rect     // MBR of live contents (never shrinks on delete)
	empty  bool
	// occ is idx's occupancy bitmap (see sharded_occupancy.go); nil means
	// "assume anything" (no pruning). It describes idx only — the insert
	// buffer is covered by extraBounds, the MBR of extra (meaningful only
	// while extra is non-empty; it never shrinks on delete, which is
	// conservative for pruning).
	occ         *occupancy
	extraBounds Rect
}

// live returns the number of points the shard currently serves.
func (s *shardSnap) live() int {
	n := s.extra.size() - s.dead.size()
	if s.idx != nil {
		n += s.idx.Len()
	}
	return n
}

// backlog is the write-buffer pressure that triggers compaction.
func (s *shardSnap) backlog() int { return s.extra.size() + s.dead.size() }

// shardCtl is a shard's mutable control state. advisor is an atomic pointer
// because query paths observe into it while rebuilds replace it; the other
// fields are guarded by Sharded.mu.
type shardCtl struct {
	advisor atomic.Pointer[RebuildAdvisor]
	recent  *queryRing
	// rebuilding marks a rebuild in flight. Writes meanwhile land in the
	// shard's delta as usual, which the rebuild rebases at its swap.
	rebuilding bool
	rebuilds   int
	// gen numbers the shard's page-file generation under disk storage;
	// every rebuild writes a fresh file so readers of the old snapshot are
	// never invalidated. Only the rebuild in flight changes it.
	gen int
	// load counts queries this shard served (range/count fan-out targets and
	// point lookups). The repartition advisor reads the cross-shard load
	// vector to detect imbalance; a repartition resets it (fresh ctls).
	load atomic.Int64
}

// queryRing is a thread-safe bounded ring of recently observed queries; its
// contents become the anticipated workload of a drift-triggered rebuild.
// Only one in ringSampleRate observations enters the mutex — the ring feeds
// rebuild workloads, where a sample is as good as the full stream, and the
// query hot path should shed shared-state traffic where it can.
type queryRing struct {
	tick   atomic.Uint64
	mu     sync.Mutex
	buf    []Rect
	next   int
	filled bool
}

const ringSampleRate = 4

func newQueryRing(n int) *queryRing { return &queryRing{buf: make([]Rect, n)} }

func (r *queryRing) add(q Rect) {
	if r.tick.Add(1)%ringSampleRate != 1 {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = q
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// preload seeds the ring with an already-sampled query window (a restored
// snapshot's), bypassing the live-path sampling.
func (r *queryRing) preload(qs []Rect) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, q := range qs {
		r.buf[r.next] = q
		r.next++
		if r.next == len(r.buf) {
			r.next = 0
			r.filled = true
		}
	}
}

func (r *queryRing) snapshot() []Rect {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.filled {
		return append([]Rect(nil), r.buf...)
	}
	return append([]Rect(nil), r.buf[:r.next]...)
}

// shardedConfig collects ShardedOption values.
type shardedConfig struct {
	shards             int
	indexOpts          []Option
	driftThreshold     float64
	windowSize         int
	compactThreshold   int
	rebuildInterval    time.Duration
	autoRebuild        bool
	autoRepartition    bool
	repartitionMaxSkew float64
	repartitionMinLoad int
	storageDir         string
	cachePages         int
	noObs              bool
	walDir             string
	walSync            string
	walSegmentBytes    int64
	walFS              wal.FS
}

// ShardedOption customizes NewSharded.
type ShardedOption func(*shardedConfig)

// WithShards sets the shard count (default: GOMAXPROCS, capped at 64).
func WithShards(n int) ShardedOption { return func(c *shardedConfig) { c.shards = n } }

// WithWorkers does nothing: a fan-out is a loop on the calling goroutine
// (docs/SERVING.md, "Fan-out") and there is no worker pool left to size.
//
// Deprecated: the option survives only because benchmark/workloads.go, a
// contract this repository's PRs may not edit, passes it; the next
// benchmark-archetype PR drops that call and this function with it. Nothing
// outside benchmark/ may use it.
func WithWorkers(int) ShardedOption { return func(*shardedConfig) {} }

// WithIndexOptions forwards options to every per-shard index build,
// including drift rebuilds.
func WithIndexOptions(opts ...Option) ShardedOption {
	return func(c *shardedConfig) { c.indexOpts = opts }
}

// WithDriftThreshold sets the per-shard drift level at which a rebuild
// triggers (default 0.6, the paper's Figure 12 crossover).
func WithDriftThreshold(t float64) ShardedOption {
	return func(c *shardedConfig) { c.driftThreshold = t }
}

// WithDriftWindow sets how many recent queries per shard inform drift
// detection and rebuild workloads (default 1024).
func WithDriftWindow(n int) ShardedOption { return func(c *shardedConfig) { c.windowSize = n } }

// WithCompactThreshold sets the per-shard write-buffer size (inserts plus
// tombstones) at which the buffer is compacted into the shard's index
// (default 1024), by folding it into a copy of the index (§6.7's updates).
func WithCompactThreshold(n int) ShardedOption {
	return func(c *shardedConfig) { c.compactThreshold = n }
}

// WithRebuildInterval sets how often the background control loop polls
// shards for drift and backlog (default 200ms).
func WithRebuildInterval(d time.Duration) ShardedOption {
	return func(c *shardedConfig) { c.rebuildInterval = d }
}

// WithoutAutoRebuild disables the background control loop. Compaction then
// happens synchronously on the writing goroutine, and drift rebuilds only
// when CheckRebuilds is called. Repartitioning likewise happens only when
// CheckRepartition or Repartition is called.
func WithoutAutoRebuild() ShardedOption { return func(c *shardedConfig) { c.autoRebuild = false } }

// WithoutAutoRepartition keeps the background control loop (drift rebuilds,
// compaction) but stops it from migrating to a new partition plan on its
// own; CheckRepartition and Repartition remain available to the caller.
// This is the "static plan" configuration of the repartition experiment.
func WithoutAutoRepartition() ShardedOption {
	return func(c *shardedConfig) { c.autoRepartition = false }
}

// WithRepartitionMaxSkew sets the cross-shard load imbalance (hottest
// shard's load as a multiple of the mean over loaded shards, see
// shard.Imbalance) beyond which the control loop re-learns the partition
// plan and migrates to it live (default 3.0). Lower values repartition more
// eagerly.
func WithRepartitionMaxSkew(s float64) ShardedOption {
	return func(c *shardedConfig) { c.repartitionMaxSkew = s }
}

// WithRepartitionMinLoad sets how many queries must have been served since
// the last repartition check before imbalance is judged (default 4096) —
// the advisor never migrates on a handful of samples.
func WithRepartitionMinLoad(n int) ShardedOption {
	return func(c *shardedConfig) { c.repartitionMinLoad = n }
}

// WithShardedStorage puts every shard's leaf pages in a disk-resident page
// file under dir (one file per shard per rebuild generation), each fronted
// by a workload-aware block cache of cachePages pages (0 selects the
// default, 1024). Save then writes attached snapshots whose warm start
// adopts the existing page files instead of rewriting them, and stale
// generations are swept on the next cold or warm start. A disk-backed
// Sharded must not be queried after Close (which releases the page files),
// and a directory must not be shared by two live instances. See
// docs/STORAGE.md.
func WithShardedStorage(dir string, cachePages int) ShardedOption {
	return func(c *shardedConfig) {
		c.storageDir = dir
		c.cachePages = cachePages
	}
}

func (c *shardedConfig) fill() {
	if c.shards <= 0 {
		c.shards = min(runtime.GOMAXPROCS(0), 64)
	}
	if c.driftThreshold <= 0 {
		c.driftThreshold = 0.6
	}
	if c.windowSize <= 0 {
		c.windowSize = 1024
	}
	if c.compactThreshold <= 0 {
		c.compactThreshold = 1024
	}
	if c.rebuildInterval <= 0 {
		c.rebuildInterval = 200 * time.Millisecond
	}
	if c.repartitionMaxSkew <= 0 {
		c.repartitionMaxSkew = 3.0
	}
	if c.repartitionMinLoad <= 0 {
		c.repartitionMinLoad = 4096
	}
}

// NewSharded builds a sharded serving layer over points: the workload-aware
// partitioner assigns each point a shard, every non-empty shard gets its own
// WaZI index built with the slice of workload that intersects its bounds,
// and (unless disabled) a background goroutine starts watching for drift.
// Call Close when done to stop the background machinery. The plan and the
// indexes are learned from the finite points, and NewSharded returns
// ErrNoPoints when there are none; a point with an infinite or NaN
// coordinate is buffered in its shard's insert run.
func NewSharded(points []Point, workload []Rect, opts ...ShardedOption) (*Sharded, error) {
	points, rest := foldable(points)
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	cfg := shardedConfig{autoRebuild: true, autoRepartition: true}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.fill()

	if cfg.storageDir != "" {
		if err := os.MkdirAll(cfg.storageDir, 0o755); err != nil {
			return nil, fmt.Errorf("wazi: creating storage dir: %w", err)
		}
		// A cold build replaces every page file; files from a previous
		// process (including retired generations) are stale.
		sweepStalePageFiles(cfg.storageDir, nil)
	}
	plan := shard.Partition(points, workload, cfg.shards)
	s := &Sharded{opts: cfg}
	if !cfg.noObs {
		s.obs = newShardedObs()
	}
	s.planRef = queryHist(plan.Bounds(), workload)
	snap, err := s.buildShards(plan, workload, 0, false)
	if err != nil {
		return nil, err
	}
	for _, p := range rest {
		snap.shards[plan.Locate(p)].buffer(p)
	}
	s.snap.Store(snap)
	// Replay any WAL tail before the background loop starts: a cold build
	// is deterministic in its inputs, so cold build + full replay recovers
	// every acknowledged write even without a snapshot.
	if err := s.initWAL(0); err != nil {
		s.closeStores()
		return nil, err
	}
	if cfg.autoRebuild {
		s.loop = make(chan struct{})
		s.kicked = make(chan struct{}, 1)
		s.wg.Add(1)
		go s.rebuildLoop()
	}
	return s, nil
}

// buildShards builds one shard per group of plan under page-file epoch
// epoch, each index learning from the slice of window its group's bounds
// meet; when seed is set, that slice also seeds the shard's recent-query
// ring, so the next drift decision and the next migration have context. A
// failed build releases the indexes built so far, page files included.
func (s *Sharded) buildShards(plan *shard.Plan, window []Rect, epoch int, seed bool) (*shardedSnapshot, error) {
	n := plan.NumShards()
	snap := &shardedSnapshot{plan: plan, shards: make([]*shardSnap, n), ctls: make([]*shardCtl, n), epoch: epoch}
	for i, group := range plan.Groups {
		ctl := &shardCtl{recent: newQueryRing(s.opts.windowSize)}
		snap.ctls[i], snap.shards[i] = ctl, &shardSnap{empty: true}
		if len(group) == 0 {
			continue
		}
		shardQs := intersectingQueries(window, geom.RectFromPoints(group))
		idx, err := s.buildShardIndex(nil, group, shardQs, epoch, i, 0)
		if err != nil {
			discardShards(snap.shards)
			return nil, fmt.Errorf("wazi: building shard %d: %w", i, err)
		}
		snap.shards[i] = &shardSnap{idx: idx, bounds: idx.Bounds(), occ: buildOccupancy(group, idx.Bounds())}
		ctl.advisor.Store(NewRebuildAdvisor(idx.Bounds(), shardQs, s.opts.windowSize, s.opts.driftThreshold))
		if seed {
			ctl.recent.preload(shardQs)
		}
	}
	return snap, nil
}

// buildShardIndex builds shard i's generation-gen index under plan epoch
// epoch: a fold of from (foldShard) if set, else a layout learned over pts,
// workload-aware when the shard has an anticipated workload. Under disk
// storage its pages go to the shard's page file, which a failed build (a
// failed page-file creation) does not leave behind.
func (s *Sharded) buildShardIndex(from *shardSnap, pts []Point, queries []Rect, epoch, i, gen int) (*Index, error) {
	opts, path := s.opts.indexOpts, filepath.Join(s.opts.storageDir, shardPageFile(epoch, i, gen))
	if s.opts.storageDir != "" {
		opts = append(slices.Clone(opts), WithStorage(Storage{Path: path, CachePages: s.opts.cachePages}))
	}
	var idx *Index
	var err error
	switch {
	case from != nil:
		idx, err = foldShard(from, buildOptions(opts))
	case len(queries) > 0:
		idx, err = NewWorkloadAware(pts, queries, opts...)
	default:
		idx, err = New(pts, opts...)
	}
	if err != nil {
		if s.opts.storageDir != "" {
			os.Remove(path)
		}
		return nil, err
	}
	s.attachStoreObs(idx)
	return idx, nil
}

// shardPageFile names shard i's generation-gen page file under plan epoch
// e. The epoch namespaces migrations: a repartition's fresh shard files can
// never collide with the retiring plan's, whatever the shard counts.
func shardPageFile(epoch, i, gen int) string {
	return fmt.Sprintf("shard-e%03d-%04d-g%06d.pages", epoch, i, gen)
}

// sweepStalePageFiles removes the page files in dir whose base name is not
// in keep — retired generations a previous process left behind.
func sweepStalePageFiles(dir string, keep map[string]bool) {
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.pages"))
	if err != nil {
		return
	}
	for _, m := range matches {
		if !keep[filepath.Base(m)] {
			os.Remove(m)
		}
	}
}

// maxRetiredStores bounds how many replaced page stores the Sharded itself
// keeps referenced (and therefore closes deterministically at Close). A
// store evicted from this FIFO is NOT closed — a long-lived View may still
// fault pages through it — it is merely unreferenced, so once the last
// snapshot using it becomes unreachable, the os.File finalizer releases
// the descriptor. Descriptor usage is thus bounded by live readers plus
// this cap, never by total rebuild count.
const maxRetiredStores = 8

// retireIndexStore parks a replaced disk-backed shard index's page store:
// caches dropped (releasing memory), file descriptor kept open for readers
// still on the old snapshot, file left on disk for concurrently-saved
// snapshots. Close, the FIFO cap (via GC), and the next start's sweep
// reclaim them. Callers hold s.mu.
func (s *Sharded) retireIndexStore(idx *Index) {
	if ds, ok := idx.z.Store().(*storage.DiskStore); ok {
		ds.DropCaches()
		s.retiredStores = append(s.retiredStores, ds)
		if len(s.retiredStores) > maxRetiredStores {
			s.retiredStores = append([]io.Closer(nil), s.retiredStores[len(s.retiredStores)-maxRetiredStores:]...)
		}
	}
}

// discardShards releases the indexes of shards no reader has seen, page
// files included.
func discardShards(shards []*shardSnap) {
	for _, ss := range shards {
		if ss == nil || ss.idx == nil {
			continue
		}
		if ds, ok := ss.idx.z.Store().(*storage.DiskStore); ok {
			ds.Close()
			os.Remove(ds.Path())
		}
	}
}

func intersectingQueries(workload []Rect, bounds Rect) []Rect {
	var out []Rect
	for _, q := range workload {
		if q.Intersects(bounds) {
			out = append(out, q)
		}
	}
	return out
}

// Close stops the background control loop and seals the write-ahead log.
// For the RAM-resident default, queries issued after Close still work and
// writes remain valid, with compaction running synchronously on the writing
// goroutine once a shard's backlog overflows — as under WithoutAutoRebuild.
// Under WithShardedStorage, Close additionally releases every shard's page
// file (current and retired), so a disk-backed Sharded must not be used
// after Close.
func (s *Sharded) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.loop != nil {
		close(s.loop)
		s.wg.Wait()
	}
	s.closeWAL()
	s.closeStores()
}

// closeStores releases the page file of every shard index of the live
// snapshot and of every retired store — a no-op on RAM-resident shards.
// Close ends with it, and a constructor whose WAL replay failed unwinds
// through it: a replay long enough to overflow a shard's buffer has already
// rebuilt that shard, so the files to release are the live snapshot's and
// the retired ones, not the array built before the replay.
func (s *Sharded) closeStores() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ss := range s.snap.Load().shards {
		if ss.idx != nil {
			ss.idx.Close()
		}
	}
	for _, c := range s.retiredStores {
		c.Close()
	}
	s.retiredStores = nil
}

// ---------------------------------------------------------------- queries

// RangeQuery returns all indexed points inside the closed rectangle r,
// fanning out to the shards whose bounds intersect r.
func (s *Sharded) RangeQuery(r Rect) []Point {
	s.rangeQs.Add(1)
	return s.rangeAppendFromSnap(nil, s.snap.Load(), r, nil)
}

// RangeQueryAppend appends the points inside r to dst and returns the
// extended slice — the buffer-reusing form of RangeQuery, symmetric with
// Index.RangeQueryAppend. Steady-state callers cycling a buffer through it
// allocate nothing: the fan-out runs on a pooled per-query arena.
func (s *Sharded) RangeQueryAppend(dst []Point, r Rect) []Point {
	s.rangeQs.Add(1)
	return s.rangeAppendFromSnap(dst, s.snap.Load(), r, nil)
}

// rangeAppendFromSnap runs a range query against one pinned snapshot; View
// and the public query path share it. ph, when non-nil, receives the scan
// and page-store time and the work counts.
func (s *Sharded) rangeAppendFromSnap(dst []Point, snap *shardedSnapshot, r Rect, ph *obs.Phases) []Point {
	mark := markIO(snap, ph)
	a := s.getArena(snap, ph)
	defer a.release()
	a.rectTargets(r)
	a.observeWorkload()
	s.obs.observeFanout(len(snap.shards), len(a.targets))
	dst = a.scan(dst)
	mark.attribute(snap, ph)
	return dst
}

// RangeCount returns the number of points inside r without materializing
// them.
func (s *Sharded) RangeCount(r Rect) int {
	s.rangeQs.Add(1)
	return s.countFromSnap(s.snap.Load(), r, nil)
}

// countFromSnap runs a range count against one pinned snapshot.
func (s *Sharded) countFromSnap(snap *shardedSnapshot, r Rect, ph *obs.Phases) int {
	mark := markIO(snap, ph)
	a := s.getArena(snap, ph)
	defer a.release()
	a.rectTargets(r)
	a.observeWorkload()
	s.obs.observeFanout(len(snap.shards), len(a.targets))
	total := 0
	for _, si := range a.targets {
		t0, live := s.scanStart(ph)
		c := shardCount(snap.shards[si], r)
		if live {
			s.endScan(ph, t0, c)
		}
		total += c
	}
	mark.attribute(snap, ph)
	return total
}

// mayContain reports whether the shard can possibly hold a point inside r:
// the index part must overlap an occupied cell, or the insert buffer's MBR
// must intersect r. False negatives are impossible — occupancy never
// clears bits and extraBounds never shrinks — so skipping a shard is
// always sound.
func (ss *shardSnap) mayContain(r Rect) bool {
	if ss.empty || !ss.bounds.Intersects(r) {
		return false
	}
	if ss.idx != nil && (ss.occ == nil || ss.occ.overlaps(r)) {
		return true
	}
	return ss.extra.size() > 0 && ss.extraBounds.Intersects(r)
}

// shardRange runs a range query against one immutable shard snapshot.
func shardRange(ss *shardSnap, r Rect, dst []Point) []Point {
	if ss.idx != nil {
		before := len(dst)
		dst = ss.dead.dropDead(ss.idx.RangeQueryAppend(dst, r), before, r)
	}
	return ss.extra.appendInside(dst, r)
}

func shardCount(ss *shardSnap, r Rect) int {
	n := ss.extra.countInside(r)
	if ss.idx != nil {
		// Every tombstone refers to a copy present in the index (Delete
		// checks before tombstoning), so subtracting the in-rectangle
		// tombstones is exact — no need to materialize the result set.
		n += ss.idx.RangeCount(r) - ss.dead.countInside(r)
	}
	return n
}

// PointQuery reports whether a point equal to p is indexed. Z-order routing
// makes this a single-shard lookup.
func (s *Sharded) PointQuery(p Point) bool {
	s.pointQs.Add(1)
	return s.pointFromSnap(s.snap.Load(), p, nil)
}

// pointFromSnap runs a point query against one pinned snapshot, routing
// with the snapshot's own plan so a View pinned across a repartition stays
// consistent with the shard array it holds.
func (s *Sharded) pointFromSnap(snap *shardedSnapshot, p Point, ph *obs.Phases) bool {
	mark := markIO(snap, ph)
	i := snap.plan.Locate(p)
	t0, live := s.scanStart(ph)
	found := pointInShard(snap, i, p)
	if live {
		n := 0
		if found {
			n = 1
		}
		s.endScan(ph, t0, n)
		mark.attribute(snap, ph)
	}
	return found
}

// pointInShard answers a point query against shard i of a snapshot.
func pointInShard(snap *shardedSnapshot, i int, p Point) bool {
	snap.ctls[i].load.Add(1)
	ss := snap.shards[i]
	if ss.empty {
		return false
	}
	if n, _ := ss.extra.count(p); n > 0 {
		return true
	}
	if ss.idx == nil {
		return false
	}
	if d, _ := ss.dead.count(p); d > 0 {
		// Some copies are tombstoned; survive only if the index holds more.
		return ss.idx.RangeCount(pointRect(p)) > d
	}
	return ss.idx.PointQuery(p)
}

func pointRect(p Point) Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// KNN returns the k points nearest to q, closest first. As on Index, the
// query runs as a sequence of window range queries (§6.3 of the paper): a
// square window around q grows until it holds k points, each window scanning
// only the shards the range path would — those whose bounds and occupancy
// bitmap it overlaps — and one final window of the certified radius settles
// the answer. Equidistant neighbours are ordered by (distance, X, Y), so the
// result is deterministic across shard layouts and backends. A non-finite q
// has no neighbours.
func (s *Sharded) KNN(q Point, k int) []Point {
	s.knnQs.Add(1)
	return s.knnAppendFromSnap(nil, s.snap.Load(), q, k, nil)
}

// KNNAppend appends the k nearest neighbours of q to dst, nearest first —
// the buffer-reusing form of KNN, symmetric with Index.KNNAppend.
func (s *Sharded) KNNAppend(dst []Point, q Point, k int) []Point {
	s.knnQs.Add(1)
	return s.knnAppendFromSnap(dst, s.snap.Load(), q, k, nil)
}

// knnAppendFromSnap runs a kNN query against one pinned snapshot.
func (s *Sharded) knnAppendFromSnap(dst []Point, snap *shardedSnapshot, q Point, k int, ph *obs.Phases) []Point {
	bounds, ok := snap.bounds()
	if k <= 0 || !ok {
		return dst
	}
	mark := markIO(snap, ph)
	a := s.getArena(snap, ph)
	defer a.release()
	dst = core.KNNWindows(dst, a, q, k, snap.knnHalfWidth(q, k), bounds)
	// Windows only grow, so the last one scanned targeted every shard the
	// query touched.
	s.obs.observeFanout(len(snap.shards), len(a.targets))
	mark.attribute(snap, ph)
	return dst
}

// knnHalfWidth is the first kNN window's half-width: the density guess of
// the index of the shard that owns q, or of all shard indexes together when
// that shard serves from its insert buffer alone. Only built indexes count —
// immutable until a rebuild replaces them — so interleaved writes do not
// move the windows a query stream scans.
func (snap *shardedSnapshot) knnHalfWidth(q Point, k int) float64 {
	if idx := snap.shards[snap.plan.Locate(q)].idx; idx != nil {
		return core.KNNHalfWidth(idx.Bounds(), idx.Len(), k)
	}
	var all Rect
	n := 0
	for _, ss := range snap.shards {
		if ss.idx == nil {
			continue
		}
		if n == 0 {
			all = ss.idx.Bounds()
		} else {
			all = all.Union(ss.idx.Bounds())
		}
		n += ss.idx.Len()
	}
	if n == 0 {
		return 0 // buffers only: KNNWindows starts from its floor
	}
	return core.KNNHalfWidth(all, n, k)
}

// ---------------------------------------------------------------- writes

// Insert adds p. The write lands in the owning shard's insert run; readers
// observe it on their next snapshot load, without blocking.
func (s *Sharded) Insert(p Point) {
	s.mu.Lock()
	snap := s.snap.Load()
	i := snap.plan.Locate(p)
	ns := *snap.shards[i]
	ns.buffer(p)
	s.commitWrite(snap, i, &ns, p, false)
}

// Delete removes one point equal to p, reporting whether one was found.
// Deletes against the immutable shard index become tombstones that
// compaction later clears.
func (s *Sharded) Delete(p Point) bool {
	s.mu.Lock()
	snap := s.snap.Load()
	i := snap.plan.Locate(p)
	ss := snap.shards[i]
	ns := *ss
	if extra, ok := ss.extra.without(p); ok {
		// A buffered insert is the cheapest thing to undo: it cancels
		// outright, leaving no tombstone behind.
		ns.extra = extra
		ns.empty = ss.idx == nil && extra.size() == 0 && ss.dead.size() == 0
	} else if n, _ := ss.dead.count(p); ss.idx != nil && ss.idx.RangeCount(pointRect(p)) > n {
		ns.dead = ss.dead.add(p)
	} else {
		s.mu.Unlock()
		return false
	}
	s.commitWrite(snap, i, &ns, p, true)
	return true
}

// commitWrite publishes ns as shard i's state after the write of p and
// records the write in the WAL. It releases s.mu, which the caller holds,
// waits until the write is durable, and compacts the shard if its backlog
// overflowed.
func (s *Sharded) commitWrite(snap *shardedSnapshot, i int, ns *shardSnap, p Point, del bool) {
	s.swapShard(snap, i, ns)
	if del {
		s.deletes.Add(1)
	} else {
		s.inserts.Add(1)
	}
	// Log under mu, right after the apply: sequence order then equals
	// apply order, so replay reproduces exactly this history.
	walSeq := s.walAppendLocked(p, del)
	ctl := snap.ctls[i]
	overflow := !ctl.rebuilding && !s.repartInFlight && ns.backlog() >= s.opts.compactThreshold
	background := s.loop != nil && !s.closed
	s.mu.Unlock()
	s.walAck(walSeq)
	if overflow {
		if background {
			s.kick()
		} else {
			s.rebuildShard(i, false)
		}
	}
}

// swapShard publishes a snapshot identical to old except for shard i,
// keeping the plan/ctls/epoch pairing intact. Callers hold s.mu.
func (s *Sharded) swapShard(old *shardedSnapshot, i int, ns *shardSnap) {
	shards := append([]*shardSnap(nil), old.shards...)
	shards[i] = ns
	s.snap.Store(&shardedSnapshot{plan: old.plan, shards: shards, ctls: old.ctls, epoch: old.epoch})
}

func (s *Sharded) kick() {
	select {
	case s.kicked <- struct{}{}:
	default:
	}
}

// ------------------------------------------------------------- adaptation

// rebuildLoop is the background control loop: every interval (or sooner,
// when a writer signals backlog pressure) it scans the shards and rebuilds
// any that drifted or overflowed, then asks the plan advisor whether
// cross-shard load imbalance warrants re-learning the partition plan.
func (s *Sharded) rebuildLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.rebuildInterval)
	defer t.Stop()
	for {
		select {
		case <-s.loop:
			return
		case <-t.C:
		case <-s.kicked:
		}
		s.CheckRebuilds()
		if s.opts.autoRepartition {
			s.CheckRepartition()
		}
	}
}

// CheckRebuilds scans every shard and rebuilds those whose drift crossed
// the threshold or whose write backlog crossed the compaction threshold,
// hot-swapping each rebuilt index in. It returns the number of shards
// rebuilt. The background loop calls this periodically; tests and callers
// running WithoutAutoRebuild can call it directly.
func (s *Sharded) CheckRebuilds() int {
	n := 0
	snap := s.snap.Load()
	for i := range snap.ctls {
		ss := snap.shards[i]
		drifted := false
		if a := snap.ctls[i].advisor.Load(); a != nil {
			drifted = a.RebuildRecommended()
		}
		if drifted || ss.backlog() >= s.opts.compactThreshold {
			if s.rebuildShard(i, drifted) {
				n++
			}
		}
	}
	return n
}

// rebuildShard rebuilds shard i, relearning it on the recently observed
// queries when relearn is set and otherwise folding its delta (see
// rebuildFrom), then swaps the result in. Reports whether a swap happened.
//
// Rebuilds and repartitions exclude each other: a rebuild never starts
// while a migration is in flight (checked in captureShard), and a migration
// never starts while any shard is rebuilding (checked in beginMigration).
// Both flags are guarded by s.mu, so the snapshot's plan/ctls pairing
// cannot change between the capture and the swap.
func (s *Sharded) rebuildShard(i int, relearn bool) bool {
	snap, ok := s.captureShard(i)
	return ok && s.rebuildFrom(snap, i, relearn)
}

// captureShard marks shard i rebuilding and returns the snapshot the
// rebuild starts from, or false when a migration or a rebuild of the shard
// is in flight or the index is closed. i can exceed the shard count when a
// migration completed between the caller observing a backlog and this
// call; the new plan's control loop pass will pick up whatever pressure
// remains.
func (s *Sharded) captureShard(i int) (*shardedSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.snap.Load()
	if s.repartInFlight || s.closed || i >= len(snap.shards) || snap.ctls[i].rebuilding {
		return nil, false
	}
	snap.ctls[i].rebuilding = true
	return snap, true
}

// rebuildFrom builds shard i's next index from the shard's state in snap,
// the capture, and swaps it in: unless relearn is set, an index that
// outlives its tombstones folds the delta (foldShard). Readers are never
// blocked: the build runs without locks, and at the swap the writes that
// landed meanwhile become the new index's delta (rebase), with no page I/O.
func (s *Sharded) rebuildFrom(snap *shardedSnapshot, i int, relearn bool) bool {
	rebuildStart := time.Now()
	ctl, ss := snap.ctls[i], snap.shards[i]
	recent := ctl.recent.snapshot()
	gen := ctl.gen

	// Build outside the mutex: every captured structure is immutable
	// copy-on-write, and for a disk-backed shard this reads all of its
	// pages — holding s.mu across that scan would stall every writer for
	// the duration.
	var pts []Point
	from := ss // the fold's source, nil for a relearn over pts
	if relearn || ss.idx == nil || ss.idx.Len() <= ss.dead.size() {
		from = nil
		pts, _ = foldable(materialize(ss))
	}

	// The shard's next state, private until the swap: a shard emptied before
	// the rebuild gets no index.
	ns := &shardSnap{empty: true}
	if from != nil || len(pts) > 0 {
		idx, err := s.buildShardIndex(from, pts, recent, snap.epoch, i, gen+1)
		if err != nil {
			// Unreachable for non-empty pts on the RAM backend; under disk
			// storage a failed page-file creation lands here. Fail safe by
			// aborting the swap.
			s.mu.Lock()
			ctl.rebuilding = false
			s.mu.Unlock()
			return false
		}
		if from != nil {
			pts = idx.Points()
		}
		ns = &shardSnap{idx: idx, bounds: idx.Bounds(), occ: buildOccupancy(pts, idx.Bounds())}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ctl.rebuilding = false
	cur := s.snap.Load()
	ns.withDelta(rebase(ss, cur.shards[i]))
	if ss.idx != nil {
		// Bank the retiring index's counters; readers still in flight on it
		// may flush a few more, which is an acceptable monitoring blur.
		s.retired = s.retired.Add(ss.idx.Stats().AtomicSnapshot())
		s.retireIndexStore(ss.idx)
	}
	if ns.idx != nil {
		ctl.gen = gen + 1
		if from == nil { // the recent window becomes the drift baseline; a fold keeps the old
			ctl.advisor.Store(NewRebuildAdvisor(ns.idx.Bounds(), recent, s.opts.windowSize, s.opts.driftThreshold))
		}
	} else {
		ctl.advisor.Store(nil)
	}
	s.swapShard(cur, i, ns)
	ctl.rebuilds++
	s.rebuilds.Add(1)
	if s.obs != nil {
		s.obs.Rebuild.ObserveSince(rebuildStart)
	}
	return true
}

// foldShard copies ss's index into the store that o, a shard build's
// options, selects and applies ss's delta to the copy with the paper's
// update path: deletes first, which drop the first tombstoned copies in leaf
// order as dropDead does, then the finite inserts. The copy then holds
// foldable(materialize(ss)) exactly, bits included.
func foldShard(ss *shardSnap, o core.Options) (*Index, error) {
	src := ss.idx.z.Options()
	src.Store, src.StoragePath, src.StorageCachePages = nil, o.StoragePath, o.StorageCachePages
	st, err := src.OpenStore()
	if err != nil {
		return nil, err
	}
	z := ss.idx.z.CopyTo(st)
	for j, p := range ss.dead.pts {
		if p.X != 0 && p.Y != 0 {
			z.Delete(p)
			continue
		}
		// Only at ±0 can copies equal under == differ in bits: once per value,
		// all go and those dropDead keeps (after the first c in leaf order) come back.
		if c, last := ss.dead.count(p); last == j {
			copies := ss.idx.RangeQuery(pointRect(p))
			for range copies {
				z.Delete(p)
			}
			for _, q := range copies[c:] {
				z.Insert(q)
			}
		}
	}
	for _, p := range ss.extra.pts {
		if p.Finite() {
			z.Insert(p)
		}
	}
	return &Index{z: z}, nil
}

// materialize flattens a shard snapshot into its live point set.
func materialize(ss *shardSnap) []Point {
	var pts []Point
	if ss.idx != nil {
		pts = ss.dead.dropDead(ss.idx.Points(), 0, everywhere)
	}
	return append(pts, ss.extra.pts...)
}

// ------------------------------------------------------------ inspection

// Len returns the number of indexed points.
func (s *Sharded) Len() int {
	n := 0
	for _, ss := range s.snap.Load().shards {
		n += ss.live()
	}
	return n
}

// Bounds returns the minimum bounding rectangle of all shards.
func (s *Sharded) Bounds() Rect {
	out, _ := s.snap.Load().bounds()
	return out
}

// bounds returns the MBR of every non-empty shard, and whether there is one.
func (snap *shardedSnapshot) bounds() (out Rect, ok bool) {
	for _, ss := range snap.shards {
		if ss.empty {
			continue
		}
		if !ok {
			out, ok = ss.bounds, true
		} else {
			out = out.Union(ss.bounds)
		}
	}
	return out, ok
}

// Bytes returns the approximate in-memory footprint across all shards.
func (s *Sharded) Bytes() int64 {
	var b int64
	for _, ss := range s.snap.Load().shards {
		if ss.idx != nil {
			b += ss.idx.Bytes()
		}
		b += int64(ss.extra.size()+ss.dead.size()) * 16
	}
	return b
}

// NumShards returns the number of shards (some possibly empty) of the
// currently serving partition plan.
func (s *Sharded) NumShards() int { return s.snap.Load().plan.NumShards() }

// DropCaches empties the block cache of every disk-backed shard index (a
// no-op under RAM-resident storage), putting the serving set in the state a
// cold start would see. Safe concurrently with queries: in-flight borrowed
// views keep their pages alive and later reads simply refault.
func (s *Sharded) DropCaches() {
	for _, ss := range s.snap.Load().shards {
		if ss.idx != nil {
			ss.idx.DropCaches()
		}
	}
}

// Rebuilds returns how many shard rebuilds have completed since
// construction: compactions, which fold a shard's write buffer into its
// index, and drift rebuilds, which relearn the shard's layout.
func (s *Sharded) Rebuilds() int64 { return s.rebuilds.Load() }

// Repartitions returns how many plan migrations have completed since
// construction (restored instances continue their snapshot's count).
func (s *Sharded) Repartitions() int64 { return s.repartitions.Load() }

// PlanEpoch returns the serving plan's epoch: how many repartitions this
// index (across restarts, via snapshots) has migrated through.
func (s *Sharded) PlanEpoch() int { return s.snap.Load().epoch }

// Migrating reports whether a plan migration is currently in flight.
func (s *Sharded) Migrating() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repartInFlight
}

// Stats returns aggregated access counters. The scan counters (pages,
// points, bounding boxes, look-ahead jumps) are summed across live shards
// plus every index retired by compaction or rebuild, so they are
// monotonically non-decreasing; the operation counters reflect logical
// calls on the Sharded layer — a fan-out query counts once, however many
// shards served it.
func (s *Sharded) Stats() Stats {
	s.mu.Lock()
	agg := s.retired
	s.mu.Unlock()
	for _, ss := range s.snap.Load().shards {
		if ss.idx != nil {
			agg = agg.Add(ss.idx.Stats().AtomicSnapshot())
		}
	}
	agg.RangeQueries = s.rangeQs.Load()
	agg.PointQueries = s.pointQs.Load() + s.knnQs.Load()
	agg.Inserts = s.inserts.Load()
	agg.Deletes = s.deletes.Load()
	return agg
}

// ShardInfo describes one shard's current state.
type ShardInfo struct {
	// Points is the number of live points the shard serves.
	Points int
	// Backlog is the uncompacted write-buffer size (inserts + tombstones).
	Backlog int
	// Drift is the shard's current workload drift estimate in [0, 1].
	Drift float64
	// Rebuilds counts completed rebuilds of this shard.
	Rebuilds int
	// WorkloadAware reports whether the shard's index was built against an
	// anticipated workload.
	WorkloadAware bool
	// Load counts queries this shard has served under the current plan
	// (range/count fan-out targets and point lookups) — the signal the
	// repartition advisor judges cross-shard imbalance on.
	Load int64
	// PagesScanned and PointsScanned are the shard index's cumulative scan
	// counters — the work (and, disk-backed, the IO) each shard performed.
	// Comparing them across shards shows imbalance in work units: a shard
	// can serve few queries yet burn most of the pages.
	PagesScanned  int64
	PointsScanned int64
	// Bounds is the shard's minimum bounding rectangle (zero when empty).
	Bounds Rect
}

// Shards returns a point-in-time description of every shard of the
// currently serving plan.
func (s *Sharded) Shards() []ShardInfo {
	snap := s.snap.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardInfo, len(snap.shards))
	for i, ss := range snap.shards {
		ctl := snap.ctls[i]
		info := ShardInfo{Points: ss.live(), Backlog: ss.backlog(),
			Rebuilds: ctl.rebuilds, Load: ctl.load.Load()}
		if !ss.empty {
			info.Bounds = ss.bounds
		}
		if ss.idx != nil {
			info.WorkloadAware = ss.idx.WorkloadAware()
			st := ss.idx.Stats().AtomicSnapshot()
			info.PagesScanned = st.PagesScanned
			info.PointsScanned = st.PointsScanned
		}
		if a := ctl.advisor.Load(); a != nil {
			info.Drift = a.Drift()
		}
		out[i] = info
	}
	return out
}

// Describe returns a one-line human-readable summary.
func (s *Sharded) Describe() string {
	snap := s.snap.Load()
	nonEmpty := 0
	for _, ss := range snap.shards {
		if !ss.empty {
			nonEmpty++
		}
	}
	return fmt.Sprintf("Sharded WaZI: %d points across %d/%d shards (plan epoch %d), %d rebuilds, %d repartitions",
		s.Len(), nonEmpty, len(snap.shards), snap.epoch, s.rebuilds.Load(), s.repartitions.Load())
}
