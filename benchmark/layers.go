package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/core"
	"github.com/wazi-index/wazi/internal/shard"
	"github.com/wazi-index/wazi/internal/storage"
	"github.com/wazi-index/wazi/internal/wal"
	"github.com/wazi-index/wazi/internal/zorder"
)

// httpProbeOps caps how many ops of a stream the HTTP probes replay: at
// ~100µs a request, a 20 000-query stream would take seconds per loop.
const httpProbeOps = 3000

// layerProbe measures the per-layer metrics of a traced run. Counts come
// from the program's public counters around the workload's own passes; times
// come from probes that call each layer's public functions directly, and
// from the traced ladder (trace.go), on a rig built over the same inputs and
// the workload's backend.
type layerProbe struct {
	cfg       config
	in        *inputs
	sys       *system
	root      string
	lat       latencies // end-to-end latencies of the untraced passes
	reads     passStats // one read pass of the workload (work counters)
	writeWork counts
	setupDisk int64 // page-file bytes at the end of set-up
	metrics   []metric
}

func (lp *layerProbe) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	lp.metrics = append(lp.metrics, metric{name, unit, v})
}

// ratio returns a/b, or 0 when b is 0: a layer the workload bypasses did no
// work, and its shares and per-op costs read zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// bestOf runs fn once per probe pass and returns its lowest result: like the
// workload passes, a probe reports its best repetition.
func (lp *layerProbe) bestOf(fn func() float64) float64 {
	lowest := math.Inf(1)
	for i := 0; i < lp.cfg.probePasses; i++ {
		lowest = math.Min(lowest, fn())
	}
	return lowest
}

// perCall times n calls of op as one block and returns nanoseconds per call.
func perCall(n int, op func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func (lp *layerProbe) run() error {
	lp.counters()
	lp.zorder()
	lp.shard()
	if err := lp.storage(); err != nil {
		return err
	}
	if err := lp.wal(); err != nil {
		return err
	}
	r, err := lp.buildRig()
	if err != nil {
		return err
	}
	defer r.close()
	if err := lp.ladder(r); err != nil {
		return err
	}
	lp.core(r)
	lp.server(r)
	if err := lp.obs(); err != nil {
		return err
	}
	if err := lp.wazi(r); err != nil {
		return err
	}
	return lp.walReplay()
}

// counters derives the count-class metrics from the workload's own passes.
func (lp *layerProbe) counters() {
	rw, nr := lp.reads.rangeWork.work, float64(len(lp.in.ranges))
	lp.add("core.nodes_visited_per_range", "count", float64(rw.NodesVisited)/nr)
	lp.add("core.bb_checked_per_range", "count", float64(rw.BBChecked)/nr)
	lp.add("core.pages_scanned_per_range", "count", float64(rw.PagesScanned)/nr)
	lp.add("core.points_scanned_per_range", "count", float64(rw.PointsScanned)/nr)
	lp.add("core.lookahead_jumps_per_range", "count", float64(rw.LookaheadJumps)/nr)
	lp.add("core.useful_point_share", "share", ratio(float64(rw.ResultPoints), float64(rw.PointsScanned)))
	lp.add("core.page_splits_per_insert", "count", ratio(float64(lp.writeWork.work.PageSplits), float64(lp.writeWork.work.Inserts)))
	w := lp.reads.work.work
	lp.add("storage.cache_hit_share", "share", ratio(float64(w.CacheHits), float64(w.CacheHits+w.CacheMisses)))
	lp.add("storage.evictions_per_range", "count", float64(rw.CacheEvictions)/nr)
	n := float64(len(lp.in.points))
	lp.add("storage.disk_bytes_per_point", "B/point", float64(lp.setupDisk)/n)
	after, _ := lp.sys.diskBytes()
	lp.add("storage.disk_bytes_per_point_after_churn", "B/point", float64(after)/n)
	var rebuildMS float64
	if lp.sys.sh != nil {
		h := lp.sys.sh.Obs().Rebuild
		rebuildMS = 1e3 * ratio(h.Sum(), float64(h.Count()))
		var loads []float64
		for _, s := range lp.sys.sh.Shards() {
			loads = append(loads, float64(s.Load))
		}
		lp.add("shard.load_imbalance", "x", shard.Imbalance(loads))
	} else {
		lp.add("shard.load_imbalance", "x", 0)
	}
	// Fan-out of the range phase: shards targeted per query after pruning,
	// and the share of the shards considered that pruning skipped.
	f := lp.reads.rangeWork
	lp.add("shard.fanout_width_mean", "shards", ratio(f.fanWidth, float64(f.fanQueries)))
	lp.add("shard.fanout_pruned_share", "share", ratio(float64(f.fanPruned), float64(f.fanPruned)+f.fanWidth))
	lp.add("wazi.rebuild_mean_ms", "ms", rebuildMS)
}

// gridKey maps a point of the unit square to its Z-order key.
func gridKey(p wazi.Point) zorder.Key {
	return zorder.Encode(uint32(p.X*math.MaxUint32), uint32(p.Y*math.MaxUint32))
}

// zorder times the two Z-order kernels, a million calls each, on the
// workload's own keys: data points encoded, and BIGMIN from a data point's
// key into the key range of a workload query.
func (lp *layerProbe) zorder() {
	calls := lp.cfg.probeCalls
	pts, qs := lp.in.points, lp.in.ranges
	var sink zorder.Key
	lp.add("zorder.encode_ns", "ns", lp.bestOf(func() float64 {
		return perCall(calls, func(i int) { sink ^= gridKey(pts[i%len(pts)]) })
	}))
	keys := make([]zorder.Key, len(pts))
	for i, p := range pts {
		keys[i] = gridKey(p)
	}
	zmin, zmax := make([]zorder.Key, len(qs)), make([]zorder.Key, len(qs))
	for i, q := range qs {
		zmin[i] = gridKey(wazi.Point{X: q.MinX, Y: q.MinY})
		zmax[i] = gridKey(wazi.Point{X: q.MaxX, Y: q.MaxY})
	}
	lp.add("zorder.bigmin_ns", "ns", lp.bestOf(func() float64 {
		return perCall(calls, func(i int) {
			k, _ := zorder.BigMin(keys[i%len(keys)], zmin[i%len(qs)], zmax[i%len(qs)])
			sink ^= k
		})
	}))
	runtime.KeepAlive(sink)
}

// shard times the partitioner, routing, and the fan-out pool's hand-off.
func (lp *layerProbe) shard() {
	var plan *shard.Plan
	lp.add("shard.partition_s", "s", lp.bestOf(func() float64 {
		t0 := time.Now()
		plan = shard.Partition(lp.in.points, lp.in.train, shards)
		return time.Since(t0).Seconds()
	}))
	pts := lp.in.points
	sink := 0
	lp.add("shard.locate_ns", "ns", lp.bestOf(func() float64 {
		return perCall(lp.cfg.probeCalls, func(i int) { sink += plan.Locate(pts[i%len(pts)]) })
	}))
	pool := shard.NewPool(workers)
	defer pool.Close()
	noop := func(int) {}
	lp.add("shard.pool_run_ns", "ns", lp.bestOf(func() float64 {
		return perCall(lp.cfg.probeCalls/64, func(int) { pool.Run(shards, noop) })
	}))
	runtime.KeepAlive(sink)
}

// storage opens a DiskStore directly and times a borrowed page view on a
// resident page and on a page faulted in after DropCaches.
func (lp *layerProbe) storage() error {
	const pages, slot = 512, 256
	ds, err := storage.CreatePageFile(filepath.Join(lp.root, "probe.pages"),
		storage.DiskOptions{SlotCap: slot, CachePages: 2 * pages})
	if err != nil {
		return err
	}
	defer ds.Close()
	ids := make([]storage.PageID, pages)
	for i := range ids {
		lo := (i * slot) % (len(lp.in.points) - slot)
		ids[i] = ds.Alloc(lp.in.points[lo:lo+slot], wazi.Rect{MaxX: 1, MaxY: 1})
	}
	if err := ds.Sync(); err != nil {
		return err
	}
	view := func(i int) {
		v := ds.View(ids[i%pages])
		v.Release()
	}
	lp.add("storage.view_miss_ns", "ns", lp.bestOf(func() float64 {
		ds.DropCaches()
		return perCall(pages, view)
	}))
	lp.add("storage.view_hit_ns", "ns", lp.bestOf(func() float64 { return perCall(64*pages, view) }))
	return nil
}

// wal drives the log package directly: appends without fsync, one writer's
// acknowledged (fsynced) appends, and two writers sharing group commits.
func (lp *layerProbe) wal() error {
	records, acked := lp.cfg.probeCalls/8, 200
	payload := make([]byte, 17) // the size of one Sharded write record
	dir := filepath.Join(lp.root, "probe-wal")
	w, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	var aerr error
	ns := perCall(records, func(int) {
		if _, err := w.Append(payload); err != nil {
			aerr = err
		}
	})
	st := w.Stats()
	if err := w.Close(); err != nil || aerr != nil {
		return fmt.Errorf("wal append probe: %v %v", err, aerr)
	}
	lp.add("wal.append_ns", "ns", ns)
	lp.add("wal.bytes_per_write", "B", ratio(float64(st.AppendedBytes), float64(st.Appends)))

	g, err := wal.Open(wal.Options{Dir: filepath.Join(lp.root, "probe-wal-group"), Sync: wal.SyncGroup})
	if err != nil {
		return err
	}
	defer g.Close()
	ackedAppend := func(lat []float64) error {
		for i := range lat {
			t0 := time.Now()
			seq, err := g.Append(payload)
			if err == nil {
				err = g.WaitDurable(seq)
			}
			if err != nil {
				return err
			}
			lat[i] = float64(time.Since(t0))
		}
		return nil
	}
	lat := make([]float64, acked)
	if err := ackedAppend(lat); err != nil {
		return err
	}
	lp.add("wal.fsync_p50_us", "us", median(lat))
	before := g.Stats()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = ackedAppend(make([]float64, acked))
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		return fmt.Errorf("wal group-commit probe: %v %v", errs[0], errs[1])
	}
	after := g.Stats()
	lp.add("wal.fsyncs_per_write_2w", "count", ratio(float64(after.Fsyncs-before.Fsyncs), float64(after.Appends-before.Appends)))
	return nil
}

// walReplay reopens the workload's own log, which by now holds every write
// of the run, and times reading it back; a workload that keeps no log reads
// zero. It closes the workload's instance, so it runs last.
func (lp *layerProbe) walReplay() error {
	if !lp.cfg.w.wal {
		lp.add("wal.replay_s", "s", 0)
		return nil
	}
	want := lp.sys.sh.WALStats().LastSeq
	lp.sys.sh.Close()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(lp.sys.dir, "wal"), Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	t0 := time.Now()
	rs, err := w.Replay(0, func(uint64, []byte) error { return nil })
	replay := time.Since(t0).Seconds()
	if cerr := w.Close(); err != nil || cerr != nil || rs.LastSeq != want {
		return fmt.Errorf("wal replay: %d records up to %d, want %d: %v %v", rs.Records, rs.LastSeq, want, err, cerr)
	}
	fmt.Fprintf(lp.cfg.log, "replayed %d log records\n", rs.Records)
	lp.add("wal.replay_s", "s", replay)
	return nil
}

// rig is the ladder the traced pass walks and the layer probes time: the
// same inputs indexed four ways on the workload's backend — behind the HTTP
// server, as a Sharded, as one Index, and as the bare core structure.
type rig struct {
	sh     *wazi.Sharded
	ln     *listener
	cli    *httpClient
	idx    *wazi.Index
	z      *core.ZIndex
	buildS float64 // build time of idx
}

func (lp *layerProbe) buildRig() (*rig, error) {
	w, in := lp.cfg.w, lp.in
	r := &rig{}
	var shOpts []wazi.ShardedOption
	var idxOpts []wazi.Option
	var zOpts core.Options
	if w.cachePages > 0 {
		// One index gets the cache the four shards have between them.
		shOpts = append(shOpts, wazi.WithShardedStorage(filepath.Join(lp.root, "rig-pages"), w.cachePages))
		idxOpts = append(idxOpts, wazi.WithStorage(wazi.Storage{
			Path: filepath.Join(lp.root, "rig-index.pages"), CachePages: shards * w.cachePages}))
		zOpts.StoragePath = filepath.Join(lp.root, "rig-core.pages")
		zOpts.StorageCachePages = shards * w.cachePages
	}
	var err error
	if r.sh, err = wazi.NewSharded(in.points, in.train, shardedOptions(shOpts...)...); err != nil {
		return nil, err
	}
	if r.ln, err = listen(r.sh); err != nil {
		r.close()
		return nil, err
	}
	r.cli = newHTTPClient(r.ln.addr)
	t0 := time.Now()
	if r.idx, err = wazi.NewWorkloadAware(in.points, in.train, idxOpts...); err != nil {
		r.close()
		return nil, err
	}
	r.buildS = time.Since(t0).Seconds()
	if r.z, err = core.BuildWaZI(in.points, in.train, zOpts); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) close() {
	if r.cli != nil {
		r.cli.close()
	}
	if r.ln != nil {
		r.ln.close()
	}
	if r.sh != nil {
		r.sh.Close()
	}
	if r.idx != nil {
		r.idx.Close()
	}
	if r.z != nil {
		r.z.Close()
	}
}

// rangeLoop replays qs through query, one sample per query, and returns the
// samples sorted.
func rangeLoop(qs []wazi.Rect, lat []float64, query func(wazi.Rect)) []float64 {
	lat = lat[:len(qs)]
	for i, q := range qs {
		t0 := time.Now()
		query(q)
		lat[i] = float64(time.Since(t0))
	}
	sort.Float64s(lat)
	return lat
}

// core measures the single index: per-selectivity range latency, the tail,
// counting, and deletes.
func (lp *layerProbe) core(r *rig) {
	in := lp.in
	lp.add("core.build_s", "s", r.buildS)
	t := &direct{lib: r.idx}
	exp := &expect{ranges: make([]int32, len(in.ranges)), knn: make([]int32, lp.cfg.w.sz.knn)}
	for i, q := range in.ranges {
		exp.ranges[i] = int32(t.rangeQuery(q))
	}
	for i := range exp.knn {
		exp.knn[i] = knnK
	}
	rec := newRecorder(in, len(exp.knn))
	stats := func() counts { return counts{work: r.idx.Stats().AtomicSnapshot()} }
	for i := 0; i < lp.cfg.probePasses; i++ {
		readPass(t, stats, in, exp, rec, group, true)
		rec.foldReads(true)
	}
	for i := 0; i < lp.cfg.probePasses; i++ {
		writePass(t, stats, in, rec, group, len(in.writes))
		rec.foldWrites()
	}
	l := rec.summarize(rec.best, in)
	for c, v := range l.classP50 {
		lp.add(fmt.Sprintf("core.range_sel%d_p50_us", c+1), "us", v)
	}
	lp.add("core.range_p99_us", "us", l.rangeP99)
	lp.add("core.delete_p50_us", "us", l.deleteP50)
	lp.add("core.count_p50_us", "us", lp.bestOf(func() float64 {
		return quantile(rangeLoop(in.ranges, rec.cur.ranges, func(q wazi.Rect) { r.idx.RangeCount(q) }), 0.5)
	}))
	lp.add("storage.cache_resident_pages", "pages", float64(r.idx.CacheStats().Resident))
}

// server measures the HTTP layer with one client (tail, response size,
// coalescing, shedding) and, informationally, with two.
func (lp *layerProbe) server(r *rig) {
	qs := lp.in.ranges[:min(httpProbeOps, len(lp.in.ranges))]
	lat := make([]float64, len(qs))
	bytes0 := r.cli.bytes
	p99 := lp.bestOf(func() float64 {
		return quantile(rangeLoop(qs, lat, func(q wazi.Rect) { r.cli.rangeQuery(q) }), 0.99)
	})
	lp.add("server.range_p99_us", "us", p99)
	lp.add("server.resp_bytes_per_range", "B", float64(r.cli.bytes-bytes0)/float64(lp.cfg.probePasses*len(qs)))

	// Two closed-loop clients, each on its own connection, each replaying
	// half of the stream: informational, because on two vCPUs the second
	// client measures the scheduler as much as the server.
	second := newHTTPClient(r.ln.addr)
	defer second.close()
	half := len(qs) / 2
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, cli := range []*httpClient{r.cli, second} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs[c*half : (c+1)*half] {
				s := time.Now()
				cli.rangeQuery(q)
				lat[c*half+i] = float64(time.Since(s))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	lp.add("server.ops_per_s_2c", "ops/s", float64(2*half)/wall)
	lp.add("server.range_p50_us_2c", "us", median(lat[:2*half]))

	snap := r.ln.srv.Registry().Snapshot()
	value := func(name string) float64 {
		if m := snap.Get(name); m != nil {
			return m.Value
		}
		return 0
	}
	lp.add("server.coalesce_batch_mean", "count", ratio(value("wazi_coalesced_reads_total"), value("wazi_coalesced_passes_total")))
	shed := value("wazi_http_shed_total")
	lp.add("server.shed_share", "share", ratio(shed, shed+value("wazi_http_admitted_total")))
}

// obs compares range latency on a RAM Sharded with and without its
// observability instruments, in alternating loops.
func (lp *layerProbe) obs() error {
	in := lp.in
	on, err := wazi.NewSharded(in.points, in.train, shardedOptions()...)
	if err != nil {
		return err
	}
	defer on.Close()
	off, err := wazi.NewSharded(in.points, in.train, shardedOptions(wazi.WithoutObservability())...)
	if err != nil {
		return err
	}
	defer off.Close()
	lat := make([]float64, len(in.ranges))
	var buf []wazi.Point
	p50 := [2]float64{math.Inf(1), math.Inf(1)}
	for i := 0; i < lp.cfg.probePasses; i++ {
		for k, sh := range []*wazi.Sharded{on, off} {
			v := quantile(rangeLoop(in.ranges, lat, func(q wazi.Rect) { buf = sh.RangeQueryAppend(buf[:0], q) }), 0.5)
			p50[k] = math.Min(p50[k], v)
		}
	}
	lp.add("obs.overhead_x", "x", ratio(p50[0], p50[1]))

	// The uninstrumented RAM instance also serves the snapshot probes.
	var snap bytes.Buffer
	t0 := time.Now()
	if err := off.Save(&snap); err != nil {
		return err
	}
	lp.add("wazi.save_s", "s", time.Since(t0).Seconds())
	lp.add("wazi.snapshot_bytes_per_point", "B/point", float64(snap.Len())/float64(len(in.points)))
	t0 = time.Now()
	loaded, err := wazi.LoadSharded(&snap, shardedOptions()...)
	if err != nil {
		return err
	}
	lp.add("wazi.load_s", "s", time.Since(t0).Seconds())
	defer loaded.Close()
	want, _ := off.ContentChecksum()
	if got, _ := loaded.ContentChecksum(); got != want {
		return fmt.Errorf("snapshot round trip changed the contents: checksum %x, want %x", got, want)
	}
	return nil
}

// wazi measures what the root package's Sharded layer adds over one index
// (from the ladder) and what a write backlog costs readers. It dirties the
// rig's Sharded, so it runs last.
func (lp *layerProbe) wazi(r *rig) error {
	in := lp.in
	qs := in.ranges
	lat := make([]float64, len(qs))
	var buf []wazi.Point
	loop := func() float64 {
		return quantile(rangeLoop(qs, lat, func(q wazi.Rect) { buf = r.sh.RangeQueryAppend(buf[:0], q) }), 0.5)
	}
	clean := lp.bestOf(loop)
	// Buffered inserts and tombstones: 480 of each, so that even if all of
	// them land in one shard its backlog (960) stays below the compaction
	// threshold (1024) and no rebuild cleans them up.
	n := min(480, len(in.writes))
	for _, p := range in.writes[:n] {
		r.sh.Insert(p)
	}
	stride := len(in.points) / n
	for i := 0; i < n; i++ {
		if p := in.points[i*stride]; !r.sh.Delete(p) {
			return fmt.Errorf("dirtying the rig: point %v not found", p)
		}
	}
	lp.add("wazi.dirty_over_clean_range_x", "x", ratio(lp.bestOf(loop), clean))
	return nil
}
