package wazi

import (
	"time"

	"github.com/wazi-index/wazi/internal/obs"
	"github.com/wazi-index/wazi/internal/storage"
)

// ShardedObs bundles the observability instruments a Sharded index feeds on
// its hot paths. The instruments are plain obs value objects owned by the
// index; the serving layer registers them with its metrics registry under
// stable names, and the bench harness reads them directly. All fields are
// histograms or counters whose methods are nil-safe, and the whole bundle
// may be absent (WithoutObservability), in which case the query paths pay
// only a nil check.
type ShardedObs struct {
	// FanoutWidth observes, per range/count/kNN query, how many shards the
	// fan-out targeted after pruning (unit: shards, not seconds).
	FanoutWidth *obs.Histogram
	// FanoutPruned counts shards skipped by MBR/occupancy pruning.
	FanoutPruned *obs.Counter
	// ShardScan observes per-shard scan latency in seconds.
	ShardScan *obs.Histogram
	// PageRead observes disk page-file read latency in seconds; it is
	// attached to the DiskStore of every shard index the Sharded builds,
	// loads, or rebuilds (RAM-backed shards never feed it).
	PageRead *obs.Histogram
	// Rebuild observes drift/compaction rebuild durations in seconds.
	Rebuild *obs.Histogram
	// Migration observes live repartition-migration durations in seconds.
	Migration *obs.Histogram
	// WALFsync observes write-ahead-log fsync latency in seconds — the
	// price of the durability acknowledgement under group/always sync.
	WALFsync *obs.Histogram
}

// fanoutBuckets sizes the fan-out width histogram: widths are small
// integers bounded by the shard count (≤64).
func fanoutBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64}
}

func newShardedObs() *ShardedObs {
	return &ShardedObs{
		FanoutWidth:  obs.NewHistogram(fanoutBuckets()),
		FanoutPruned: &obs.Counter{},
		ShardScan:    obs.NewHistogram(obs.DefBuckets()),
		PageRead:     obs.NewHistogram(obs.DefBuckets()),
		Rebuild:      obs.NewHistogram(obs.DefBuckets()),
		Migration:    obs.NewHistogram(obs.DefBuckets()),
		WALFsync:     obs.NewHistogram(obs.DefBuckets()),
	}
}

// Obs returns the index's observability instruments, or nil when built
// WithoutObservability. The serving layer registers the bundle at startup.
func (s *Sharded) Obs() *ShardedObs { return s.obs }

// observeFanout records one fan-out decision: width shards targeted out of
// total. Nil-safe.
func (o *ShardedObs) observeFanout(total, width int) {
	if o == nil {
		return
	}
	o.FanoutWidth.Observe(float64(width))
	o.FanoutPruned.Add(int64(total - width))
}

// observeScan records one shard scan's latency. Nil-safe.
func (o *ShardedObs) observeScan(d time.Duration) {
	if o == nil {
		return
	}
	o.ShardScan.Observe(d.Seconds())
}

// WithoutObservability disables the per-query instruments (fan-out and
// latency histograms). A phase clock handed in via View.SetPhases still
// runs. This exists for the benchmark's obs.overhead_x row, which measures
// the instrumented hot path against this configuration.
func WithoutObservability() ShardedOption {
	return func(c *shardedConfig) { c.noObs = true }
}

// attachStoreObs points a freshly built or loaded shard index's disk store
// at the shared page-read histogram. No-op for RAM-backed shards or when
// observability is off.
func (s *Sharded) attachStoreObs(idx *Index) {
	if s.obs == nil || idx == nil {
		return
	}
	if ds, ok := idx.z.Store().(*storage.DiskStore); ok {
		ds.SetReadObs(s.obs.PageRead)
	}
}

// snapReadIO sums the cumulative page-file read counters across the disk
// stores of a snapshot's shards. Timed queries take before/after deltas to
// attribute cache-miss page I/O to themselves; concurrent faulting can fold
// a neighbor's read into the delta, so the attribution is monitoring-grade.
func snapReadIO(snap *shardedSnapshot) (reads, nanos int64) {
	for _, ss := range snap.shards {
		if ss.idx == nil {
			continue
		}
		if ds, ok := ss.idx.z.Store().(*storage.DiskStore); ok {
			r, n := ds.ReadIO()
			reads += r
			nanos += n
		}
	}
	return reads, nanos
}

// ioMark is where a timed query started: the snapshot's page-file read
// counters and the query's own scan clock.
type ioMark struct{ reads, nanos, scanNS int64 }

// markIO opens page-I/O attribution for a query against snap. With a nil ph
// it reads nothing, so untimed queries never touch the store counters.
func markIO(snap *shardedSnapshot, ph *obs.Phases) (m ioMark) {
	if ph != nil {
		m.reads, m.nanos = snapReadIO(snap)
		m.scanNS = ph.NS[obs.PhaseScan]
	}
	return m
}

// attribute closes a markIO: the page-file read time since the mark moves
// out of the query's scan phase into pagestore. Reads happen inside scans,
// so the move is clamped to the scan time the query itself clocked — a
// neighbor's read folded into the delta cannot push pagestore past scan.
func (m ioMark) attribute(snap *shardedSnapshot, ph *obs.Phases) {
	if ph == nil {
		return
	}
	r1, n1 := snapReadIO(snap)
	if dr := r1 - m.reads; dr > 0 {
		ns := min(n1-m.nanos, ph.NS[obs.PhaseScan]-m.scanNS)
		ph.NS[obs.PhaseScan] -= ns
		ph.NS[obs.PhasePagestore] += ns
		ph.PageReads += dr
	}
}

// scanStart opens the timing of one shard scan: it returns the start time
// and whether any scan instrument is live (the shared latency histogram or a
// request's phase clock). Callers pair it with endScan, skipped when live is
// false. The pair is deliberately not a returned closure — a closure per
// shard scan is a heap allocation on the hottest path in the system, which
// TestQueryKernelAllocatesNothing holds to zero.
func (s *Sharded) scanStart(ph *obs.Phases) (t0 time.Time, live bool) {
	if ph == nil && s.obs == nil {
		return time.Time{}, false
	}
	return time.Now(), true
}

// endScan closes a scan opened by scanStart: latency into the shared
// histogram and, when timed, into the request's scan phase with its result
// count.
func (s *Sharded) endScan(ph *obs.Phases, t0 time.Time, results int) {
	d := time.Since(t0)
	s.obs.observeScan(d)
	if ph != nil {
		ph.NS[obs.PhaseScan] += int64(d)
		ph.Scans++
		ph.Results += int64(results)
	}
}
