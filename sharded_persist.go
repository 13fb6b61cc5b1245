package wazi

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"github.com/wazi-index/wazi/internal/core"
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/shard"
	"github.com/wazi-index/wazi/internal/storage"
	"github.com/wazi-index/wazi/internal/zorder"
)

// This file persists a Sharded index: the versioned partition plan plus one
// record per shard (its built index via core persistence, the uncompacted
// write buffer, tombstones, and the recent-query window that seeds the
// shard's drift advisor on reload). A server can therefore stop, write a
// snapshot, and restart serving the exact same contents without re-running
// partitioning or any index construction — the warm-start flow of
// cmd/waziserve.

const (
	// shardedMagic identifies a Sharded snapshot stream.
	shardedMagic = "wazi-sharded"
	// shardedSnapshotVersion is the on-disk format version; Load refuses
	// any other value so a format change can never be half-read. Version 2
	// added the plan epoch and a migration record, which version 3 dropped.
	shardedSnapshotVersion = 3
)

// shardedHeader is the versioned partition-plan header that precedes the
// per-shard records.
type shardedHeader struct {
	Magic   string
	Version int
	Bounds  Rect
	Cuts    []uint64
	Shards  int
	// Epoch is the serving plan's epoch (completed repartitions across the
	// index's whole history); it namespaces the shard page files on disk.
	Epoch int
	// Repartitions is the instance's completed-migration count, restored so
	// monitoring counters survive restarts (equals Epoch today, but the
	// counter is per-history and the epoch is per-plan, so both persist).
	Repartitions int64
	// WALSeq is the write-ahead-log sequence number of the last write this
	// snapshot contains: Load replays only records above it. Captured under
	// the write mutex together with the snapshot pointer, so the two are
	// exactly consistent. Zero when the instance ran without a WAL (gob
	// also yields zero reading pre-WAL snapshots, which replays the whole
	// log — correct, since such a snapshot predates every record).
	WALSeq uint64
}

// shardedShardRecord serializes one shard's complete state. The built index
// is embedded as opaque bytes (the core snapshot format, itself versioned)
// so the two formats can evolve independently. Under disk storage the index
// bytes are an attached snapshot — tree structure plus page references —
// and PageFile names the page file (relative to the storage directory)
// that the warm start adopts instead of rewriting.
type shardedShardRecord struct {
	Empty    bool
	HasIdx   bool
	Index    []byte
	Extra    []Point
	Dead     []deadRecord
	Bounds   Rect
	Recent   []Rect
	Rebuilds int
	Attached bool
	PageFile string
	Gen      int
	// Occupancy bitmap of the built index (version 2+): persisting it keeps
	// fan-out pruning effective on warm start without re-reading every page.
	// HasOcc false (or implausible contents) degrades to no pruning.
	HasOcc   bool
	OccFrame Rect
	OccSat   bool
	OccBits  [64]uint64
}

// maxSnapshotShards bounds the shard count a snapshot header may declare,
// keeping corrupt or adversarial input from driving huge allocations (each
// shard carries a drift ring and control state). Sixteen times the largest
// default shard count is far beyond any real deployment here.
const maxSnapshotShards = 1024

// deadRecord is one tombstone multiset entry: N copies of P are deleted.
type deadRecord struct {
	P Point
	N int
}

// deadRecords tallies a tombstone run into records, one per distinct point,
// in sorted order: one state always encodes to the same bytes.
func deadRecords(dead deltaRun) (out []deadRecord) {
	for _, p := range slices.SortedFunc(slices.Values(dead.pts), geom.CmpXY) {
		if k := len(out) - 1; k >= 0 && out[k].P == p {
			out[k].N++
		} else {
			out = append(out, deadRecord{P: p, N: 1})
		}
	}
	return out
}

// loadDead rebuilds a tombstone run from its records, refusing what no Save
// writes: a count below one, a point recorded twice, or more copies than
// idx holds (which also bounds the run by the index's size).
func loadDead(recs []deadRecord, idx *Index) (dead deltaRun, err error) {
	slices.SortFunc(recs, func(a, b deadRecord) int { return geom.CmpXY(a.P, b.P) })
	for k, rec := range recs {
		switch {
		case rec.N < 1:
			return dead, fmt.Errorf("tombstone %v has count %d", rec.P, rec.N)
		case k > 0 && recs[k-1].P == rec.P:
			return dead, fmt.Errorf("tombstone %v recorded twice", rec.P)
		case idx == nil || rec.N > idx.RangeCount(pointRect(rec.P)):
			return dead, fmt.Errorf("tombstone %v deletes %d copies, more than the index holds", rec.P, rec.N)
		}
		dead.pts = append(dead.pts, slices.Repeat([]Point{rec.P}, rec.N)...)
	}
	dead.sorted = len(dead.pts)
	return dead, nil
}

// Save serializes the Sharded index — partition plan, per-shard indexes,
// write buffers, tombstones, and recent-query windows — so Load can restore
// it without rebuilding. Save briefly blocks writers (it holds the write
// mutex only long enough to capture a consistent cut of the snapshot and
// control state) and never blocks readers; the serialization itself runs
// lock-free, since every captured structure is immutable copy-on-write.
func (s *Sharded) Save(w io.Writer) error {
	s.mu.Lock()
	snap := s.snap.Load()
	rebuilds := make([]int, len(snap.ctls))
	recents := make([][]Rect, len(snap.ctls))
	gens := make([]int, len(snap.ctls))
	for i, ctl := range snap.ctls {
		rebuilds[i] = ctl.rebuilds
		recents[i] = ctl.recent.snapshot()
		gens[i] = ctl.gen
	}
	repartitions := s.repartitions.Load()
	var walSeq uint64
	if s.wal != nil {
		// The log position matching this snapshot, captured in the same
		// mutex hold as the snapshot pointer. Recorded as the truncation
		// cut too — but TruncateWAL acts on it only once the caller has
		// durably persisted what Save writes (the Save-truncation
		// invariant, docs/DURABILITY.md).
		walSeq = s.wal.Stats().LastSeq
	}
	s.mu.Unlock()
	s.lastSaveCut.Store(walSeq)

	cuts := snap.plan.Cuts()
	h := shardedHeader{
		Magic:        shardedMagic,
		Version:      shardedSnapshotVersion,
		Bounds:       snap.plan.Bounds(),
		Cuts:         make([]uint64, len(cuts)),
		Shards:       len(snap.shards),
		Epoch:        snap.epoch,
		Repartitions: repartitions,
		WALSeq:       walSeq,
	}
	for i, c := range cuts {
		h.Cuts[i] = uint64(c)
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(&h); err != nil {
		return fmt.Errorf("wazi: encoding sharded header: %w", err)
	}
	for i, ss := range snap.shards {
		rec := shardedShardRecord{
			Empty:    ss.empty,
			Extra:    slices.SortedFunc(slices.Values(ss.extra.pts), geom.CmpXY),
			Dead:     deadRecords(ss.dead),
			Bounds:   ss.bounds,
			Recent:   recents[i],
			Rebuilds: rebuilds[i],
			Gen:      gens[i],
		}
		if ss.occ != nil {
			rec.HasOcc = true
			rec.OccFrame = ss.occ.frame
			rec.OccSat = ss.occ.sat
			rec.OccBits = ss.occ.bits
		}
		if ss.idx != nil {
			var buf bytes.Buffer
			if ds, ok := ss.idx.z.Store().(*storage.DiskStore); ok {
				// Disk-backed shard: write an attached snapshot (tree +
				// page references) and adopt the page file on load, rather
				// than rewriting every page through the stream.
				if err := ss.idx.z.SaveAttached(&buf); err != nil {
					return fmt.Errorf("wazi: encoding shard %d index: %w", i, err)
				}
				rec.Attached = true
				rec.PageFile = filepath.Base(ds.Path())
			} else if err := ss.idx.Save(&buf); err != nil {
				return fmt.Errorf("wazi: encoding shard %d index: %w", i, err)
			}
			rec.HasIdx = true
			rec.Index = buf.Bytes()
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("wazi: encoding shard %d: %w", i, err)
		}
	}
	return nil
}

// LoadSharded restores a Sharded index previously written by Save: the
// partition plan is reconstructed from its header (so Locate routes exactly
// as before), every shard index is deserialized rather than rebuilt, and
// each shard's drift advisor is re-seeded from the persisted recent-query
// window. Options configure the restored instance the same way they
// configure NewSharded; WithShards is ignored (the plan fixes the shard
// count). A snapshot with a different format version is refused with a
// clear error rather than guessed at.
func LoadSharded(r io.Reader, opts ...ShardedOption) (*Sharded, error) {
	dec := gob.NewDecoder(r)
	var h shardedHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("wazi: decoding sharded header: %w", err)
	}
	if h.Magic != shardedMagic {
		return nil, fmt.Errorf("wazi: not a sharded snapshot (magic %q)", h.Magic)
	}
	if h.Version != shardedSnapshotVersion {
		return nil, fmt.Errorf("wazi: unsupported sharded snapshot version %d (this build reads version %d)",
			h.Version, shardedSnapshotVersion)
	}
	if h.Shards != len(h.Cuts)+1 || h.Shards < 1 {
		return nil, fmt.Errorf("wazi: corrupt sharded snapshot: %d shards with %d cuts", h.Shards, len(h.Cuts))
	}
	if h.Shards > maxSnapshotShards {
		return nil, fmt.Errorf("wazi: implausible shard count %d in snapshot", h.Shards)
	}
	if err := validateCuts(h.Cuts); err != nil {
		return nil, fmt.Errorf("wazi: corrupt sharded snapshot: %w", err)
	}
	if h.Epoch < 0 || h.Repartitions < 0 {
		return nil, fmt.Errorf("wazi: corrupt sharded snapshot: negative epoch %d / repartitions %d", h.Epoch, h.Repartitions)
	}

	cfg := shardedConfig{autoRebuild: true, autoRepartition: true}
	for _, o := range opts {
		o(&cfg)
	}
	cfg.shards = h.Shards // the plan, not the caller, fixes the shard count
	cfg.fill()

	cuts := make([]zorder.Key, len(h.Cuts))
	for i, c := range h.Cuts {
		cuts[i] = zorder.Key(c)
	}
	if cfg.storageDir != "" {
		if err := os.MkdirAll(cfg.storageDir, 0o755); err != nil {
			return nil, fmt.Errorf("wazi: creating storage dir: %w", err)
		}
	}
	s := &Sharded{opts: cfg}
	if !cfg.noObs {
		s.obs = newShardedObs()
	}
	snap := &shardedSnapshot{plan: shard.Restore(h.Bounds, cuts),
		shards: make([]*shardSnap, h.Shards), ctls: make([]*shardCtl, h.Shards), epoch: h.Epoch}
	totalRebuilds := 0
	keepFiles := map[string]bool{}
	// closeLoaded unwinds already-adopted page stores when a later shard
	// fails to load, so an aborted warm start leaks no descriptors.
	closeLoaded := func() {
		for _, ss := range snap.shards {
			if ss != nil && ss.idx != nil {
				ss.idx.Close()
			}
		}
	}
	for i := 0; i < h.Shards; i++ {
		var rec shardedShardRecord
		if err := dec.Decode(&rec); err != nil {
			closeLoaded()
			return nil, fmt.Errorf("wazi: decoding shard %d: %w", i, err)
		}
		ctl := &shardCtl{recent: newQueryRing(cfg.windowSize), rebuilds: rec.Rebuilds, gen: rec.Gen}
		// Re-seed the recent-query window: without it the first post-restart
		// rebuild would be workload-oblivious, and the next Save would drop
		// the window the previous process persisted.
		ctl.recent.preload(rec.Recent)
		snap.ctls[i] = ctl
		totalRebuilds += rec.Rebuilds
		ss := &shardSnap{empty: rec.Empty, bounds: rec.Bounds}
		snap.shards[i] = ss
		ss.withDelta(rec.Extra, nil)
		if rec.HasIdx && rec.HasOcc && plausibleOccupancy(rec) {
			ss.occ = &occupancy{frame: rec.OccFrame, sat: rec.OccSat, bits: rec.OccBits}
		}
		if rec.HasIdx && cfg.storageDir != "" {
			if rec.Gen < 0 {
				closeLoaded()
				return nil, fmt.Errorf("wazi: corrupt sharded snapshot: shard %d has negative generation %d", i, rec.Gen)
			}
			// Reject page-file collisions before any file is opened or
			// created: two stores over one file would each manage their
			// own free list and silently overwrite each other's pages,
			// and a later migration target could even truncate a file an
			// earlier shard already adopted.
			name := rec.PageFile
			if !rec.Attached {
				name = shardPageFile(h.Epoch, i, rec.Gen)
			}
			if keepFiles[name] {
				closeLoaded()
				return nil, fmt.Errorf("wazi: corrupt sharded snapshot: page file %q referenced by two shards", name)
			}
		}
		if rec.HasIdx {
			idx, pageFile, err := loadShardIndex(rec, h.Epoch, i, cfg)
			if err != nil {
				closeLoaded()
				return nil, fmt.Errorf("wazi: loading shard %d index: %w", i, err)
			}
			if pageFile != "" {
				keepFiles[pageFile] = true
			}
			s.attachStoreObs(idx)
			ss.idx = idx
			ctl.advisor.Store(NewRebuildAdvisor(idx.Bounds(), rec.Recent, cfg.windowSize, cfg.driftThreshold))
		}
		dead, err := loadDead(rec.Dead, ss.idx)
		if err != nil {
			closeLoaded()
			return nil, fmt.Errorf("wazi: corrupt sharded snapshot: shard %d: %w", i, err)
		}
		ss.dead = dead
	}
	if cfg.storageDir != "" {
		// Reclaim page files no shard references — retired generations the
		// previous process kept for its in-flight readers.
		sweepStalePageFiles(cfg.storageDir, keepFiles)
	}
	s.rebuilds.Store(int64(totalRebuilds))
	s.repartitions.Store(h.Repartitions)
	// The persisted windows approximate the workload the serving plan was
	// learned from; they re-seed the plan-drift reference as well as the
	// per-shard rings above.
	var allRecent []Rect
	for _, ctl := range snap.ctls {
		allRecent = append(allRecent, ctl.recent.snapshot()...)
	}
	s.planRef = queryHist(snap.plan.Bounds(), allRecent)
	s.snap.Store(snap)
	// Replay the WAL tail past the snapshot's cut before serving: the
	// snapshot holds everything up to WALSeq, the log everything
	// acknowledged after it.
	if err := s.initWAL(h.WALSeq); err != nil {
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

// loadShardIndex restores one shard's index from its record. Attached
// records (disk-backed shards) adopt their existing page file; inline
// records load in RAM, or — when the caller configured WithShardedStorage —
// migrate onto a fresh page file. It returns the page-file base name the
// shard now references, if any.
func loadShardIndex(rec shardedShardRecord, epoch, i int, cfg shardedConfig) (*Index, string, error) {
	switch {
	case rec.Attached:
		if cfg.storageDir == "" {
			return nil, "", fmt.Errorf("attached snapshot (page file %q) requires WithShardedStorage", rec.PageFile)
		}
		if rec.PageFile == "" || rec.PageFile != filepath.Base(rec.PageFile) || rec.PageFile == "." || rec.PageFile == ".." {
			return nil, "", fmt.Errorf("corrupt page-file name %q", rec.PageFile)
		}
		st, err := storage.OpenPageFile(filepath.Join(cfg.storageDir, rec.PageFile), storage.DiskOptions{CachePages: cfg.cachePages})
		if err != nil {
			return nil, "", err
		}
		z, err := core.LoadWithStore(bytes.NewReader(rec.Index), st)
		if err != nil {
			st.Close()
			return nil, "", err
		}
		return &Index{z: z}, rec.PageFile, nil
	case cfg.storageDir != "":
		// Inline snapshot restored onto disk storage: the cold migration
		// path between backends. Slot capacity follows the configured
		// WithLeafSize (or its default) so single-leaf pages stay
		// single-slot after migration.
		name := shardPageFile(epoch, i, rec.Gen)
		st, err := storage.CreatePageFile(filepath.Join(cfg.storageDir, name), storage.DiskOptions{
			SlotCap:    buildOptions(cfg.indexOpts).LeafSize,
			CachePages: cfg.cachePages,
		})
		if err != nil {
			return nil, "", err
		}
		z, err := core.LoadWithStore(bytes.NewReader(rec.Index), st)
		if err != nil {
			st.Close()
			os.Remove(filepath.Join(cfg.storageDir, name))
			return nil, "", err
		}
		return &Index{z: z}, name, nil
	default:
		idx, err := Load(bytes.NewReader(rec.Index))
		if err != nil {
			return nil, "", err
		}
		return idx, "", nil
	}
}

// plausibleOccupancy decides whether a restored occupancy bitmap can be
// trusted for pruning. The bitmap is routing-critical — a zeroed bit makes
// mayContain silently drop results — so anything a legitimate Save cannot
// produce degrades to nil (no pruning, always correct) instead: the frame
// must be a valid rectangle inside the shard's bounds (it was the built
// index's MBR, and bounds only ever grow from there), and an unsaturated
// bitmap must mark at least one cell (it was built from a non-empty index).
func plausibleOccupancy(rec shardedShardRecord) bool {
	f := rec.OccFrame
	if !f.Valid() || f.MinX < rec.Bounds.MinX || f.MinY < rec.Bounds.MinY ||
		f.MaxX > rec.Bounds.MaxX || f.MaxY > rec.Bounds.MaxY {
		return false
	}
	if rec.OccSat {
		return true
	}
	for _, w := range rec.OccBits {
		if w != 0 {
			return true
		}
	}
	return false
}

// validateCuts enforces the plan invariant the routing code assumes: cut
// keys strictly increasing (sort.Search over an unsorted cut list would
// route points to the wrong shard without ever failing loudly).
func validateCuts(cuts []uint64) error {
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			return fmt.Errorf("cut keys not strictly increasing at %d (%d then %d)", i, cuts[i-1], cuts[i])
		}
	}
	return nil
}
