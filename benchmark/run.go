package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runSeconds is the run length BENCHMARK.json hands to -seconds. Passes are
// fixed op counts, never deadlines: -seconds only scales how many passes a
// run makes, and at runSeconds the timed passes of each workload take about
// that long on the reference box.
const runSeconds = 12

// firstTouch is how many ops of each read stream set-up replays before it
// counts as done, so that lazy initialisation (page faults on a mapped file,
// pools, the first connection) is charged to setup_s, not to the first pass.
const firstTouch = 1000

// config is one invocation of the benchmark.
type config struct {
	w         spec
	seed      int64
	seconds   int
	trace     bool
	outDir    string // scratch and trace files; created if missing
	setupReps int    // set-ups per run; setup_s is their median
	// probePasses is how often a layer probe repeats its loop, probeCalls how
	// many calls a micro-probe of a nanosecond-scale function makes.
	probePasses, probeCalls int
	log                     io.Writer
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	endToEnd          []metric
	perLayer          []metric // nil unless traced
}

// scaled returns passes scaled from the default run length to seconds.
func scaled(passes, seconds int) int {
	if passes == 0 {
		return 0
	}
	n := int(math.Round(float64(passes) * float64(seconds) / runSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// runner carries one run from set-up to the report.
type runner struct {
	cfg  config
	root string // scratch directory of this run
	in   *inputs
	sys  *system
	twin *system // index-ram: a second, identical index that takes the writes
	exp  *expect
	rec  *recorder
	rep  *report

	setupS    float64 // median set-up time
	setupDisk int64   // page-file bytes at the end of set-up
	space     float64 // bytes per indexed point at the end of set-up
	heapMB    float64
	size      int // contents every later check must find again
	sum       uint64

	fastest     passStats // best wall time of each slice over the read passes
	lastRead    passStats // the last read pass that included the kNN phase
	writeWork   counts    // the program's counters over one write pass
	writeOps    int
	rebuilds    int64 // shard rebuilds during the timed passes that write
	gcPerPass   float64
	allocsPerOp float64
}

// run executes one workload: repeated set-up, the verification pass, the
// timed read passes with the timed write passes between them, the rebuilding
// write passes and, when traced, the layer probes.
func run(cfg config) (rep *report, err error) {
	runtime.GOMAXPROCS(procs)
	w := cfg.w
	fmt.Fprintf(cfg.log, "workload %s seed %d GOMAXPROCS %d passes %d+%d+%d\n", w.name, cfg.seed,
		runtime.GOMAXPROCS(0), scaled(w.readPasses, cfg.seconds), scaled(w.readPasses, cfg.seconds)*w.writesPerRead, w.rebuildPasses)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, rep: &report{}}
	if r.root, err = os.MkdirTemp(cfg.outDir, w.name+"-"); err != nil {
		return nil, err
	}
	defer func() {
		for _, sys := range []*system{r.sys, r.twin} {
			if sys != nil {
				if cerr := sys.close(); err == nil {
					err = cerr
				}
			}
		}
		if rerr := os.RemoveAll(r.root); err == nil {
			err = rerr
		}
	}()
	if err := r.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	if err := r.readPasses(); err != nil {
		return nil, err
	}
	if err := r.finishWrites(); err != nil {
		return nil, err
	}
	lat := r.rec.summarize(r.rec.best, r.in)
	r.rep.endToEnd = []metric{
		{"setup_s", "s", r.setupS},
		{"ops_per_s", "ops/s", r.fastest.opsPerSec(w.knnEvery)},
		{"range_p50_us", "us", lat.rangeP50},
		{"range_p95_us", "us", lat.rangeP95},
		{"point_p50_us", "us", lat.pointP50},
		{"knn_p50_us", "us", lat.knnP50},
		{"insert_p50_us", "us", lat.insertP50},
		{"space_bytes_per_point", "B/point", r.space},
	}
	if !cfg.trace {
		return r.rep, nil
	}
	lp := &layerProbe{cfg: cfg, in: r.in, sys: r.sys, root: r.root, lat: lat,
		reads: r.lastRead, writeWork: r.writeWork, setupDisk: r.setupDisk}
	lp.add("proc.heap_inuse_mb_after_setup", "MB", r.heapMB)
	lp.add("proc.gc_cycles_per_pass", "count", r.gcPerPass)
	lp.add("proc.allocs_per_op", "count", r.allocsPerOp)
	lp.add("wazi.rebuilds_per_1k_writes", "count", 1000*float64(r.rebuilds)/float64(r.writeOps))
	if err := lp.run(); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	r.rep.perLayer = lp.metrics
	return r.rep, nil
}

// setUp sets the system up several times over: the median is what setup_s
// reports, the last instance is the one measured.
func (r *runner) setUp() error {
	w := r.cfg.w
	setups := make([]float64, 0, r.cfg.setupReps)
	for i := 0; i < r.cfg.setupReps; i++ {
		if r.sys != nil {
			if err := r.sys.close(); err != nil {
				return err
			}
			r.sys = nil
		}
		r.in = makeInputs(w.sz, w.zipf, w.churn, r.cfg.seed)
		t0 := time.Now().Add(-r.in.fixtureTime)
		sys, err := open(w, r.in, filepath.Join(r.root, fmt.Sprintf("sys%d", i)))
		if err != nil {
			return err
		}
		r.sys = sys
		for _, p := range r.in.tombs {
			sys.tgt.remove(p)
		}
		touch(sys.tgt, r.in)
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(r.cfg.log, "set-up %d  %.3fs\n", i, setups[i])
	}
	sort.Float64s(setups)
	r.setupS = setups[len(setups)/2]

	var err error
	if r.setupDisk, err = r.sys.diskBytes(); err != nil {
		return err
	}
	r.space = float64(r.sys.memBytes()+r.setupDisk) / float64(len(r.in.points))
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.heapMB = float64(mem.HeapInuse) / (1 << 20)
	if !w.sharded && w.writesPerRead > 0 {
		// One more, identical index takes the write passes (see writePass).
		r.twin, err = open(w, r.in, "")
	}
	return err
}

// verify runs the verification pass, which is also the warm-up of the timed
// passes, and under a WAL the recovery check.
func (r *runner) verify() error {
	w, in := r.cfg.w, r.in
	r.exp = &expect{ranges: make([]int32, len(in.ranges)), knn: make([]int32, w.sz.knn)}
	v := &verifier{t: r.sys.tgt, or: newOracle(in.points, in.tombs), exp: r.exp}
	if w.http {
		v.ref = r.sys.sh
	}
	if w.churn {
		v.churnStreams(in)
	} else {
		v.readStreams(in)
	}
	r.size, r.sum = r.sys.contents()
	v.check(r.size == len(in.points)-len(in.tombs))
	if w.wal {
		// Durability: drop the instance, rebuild from the same inputs and
		// let the WAL replay the writes made so far; the contents must come
		// back exactly. The timed passes run on the recovered instance.
		r.sys.sh.Close()
		dir := r.sys.dir
		r.sys = nil
		sys, err := open(w, in, dir)
		if err != nil {
			return fmt.Errorf("reopening from the WAL: %w", err)
		}
		r.sys = sys
		size, sum := sys.contents()
		v.check(size == r.size && sum == r.sum && sys.sh.WALStats().RecoveredRecords == len(in.tombs)+2*len(in.writes))
	}
	r.rep.attempted, r.rep.failed = v.attempted, v.failed
	fmt.Fprintf(r.cfg.log, "verified %d ops, %d failed\n", v.attempted, v.failed)
	return nil
}

// readPasses runs the timed read passes (the interleaved passes under churn).
func (r *runner) readPasses() error {
	w, in, sys, rec := r.cfg.w, r.in, r.sys, newRecorder(r.in, r.cfg.w.sz.knn)
	r.rec = rec
	g := group
	if w.http {
		g = 1 // a request costs tens of microseconds: timed one by one
	}
	runtime.GC()
	var mem runtime.MemStats
	var gcs uint32
	var mallocs uint64
	readOps := 0
	passes := scaled(w.readPasses, r.cfg.seconds)
	hist := make([]passStats, 0, passes)
	wantRebuilds := int64(0)
	if w.churn {
		wantRebuilds = 2
	}
	for i := 0; i < passes; i++ {
		// The kNN phase runs in every knnEvery-th pass only: a sharded kNN
		// costs milliseconds, so it needs few repetitions to run undisturbed
		// once but many queries for a steady median.
		withKNN := i%w.knnEvery == 0
		runtime.ReadMemStats(&mem)
		gc0, mallocs0 := mem.NumGC, mem.Mallocs
		var p passStats
		if w.churn {
			p = churnPass(sys.tgt, sys.counts, in, r.exp, rec, withKNN)
			rec.foldWrites()
		} else {
			p = readPass(sys.tgt, sys.counts, in, r.exp, rec, g, withKNN)
		}
		runtime.ReadMemStats(&mem)
		gcs, mallocs = gcs+mem.NumGC-gc0, mallocs+mem.Mallocs-mallocs0
		rec.foldReads(withKNN)
		l := rec.summarize(rec.cur, in)
		fmt.Fprintf(r.cfg.log, "pass %2d  %8.0f ops/s  range p50 %7.2f p95 %8.2f  point p50 %7.3f  knn p50 %9.2f  insert p50 %7.3f us\n",
			i, float64(p.total())/p.wall().Seconds(), l.rangeP50, l.rangeP95, l.pointP50, l.knnP50, l.insertP50)
		// The op stream is fixed, so the program's work must be too: a pass
		// that did other work than the pass one kNN cycle earlier (which
		// replayed the same phases from the same state) is a failed run, not
		// a sample.
		if j := i - w.knnEvery; j >= 0 {
			q, first := hist[j], j < w.knnEvery
			if p.ops != q.ops {
				return fmt.Errorf("pass %d attempted %d ops, pass %d attempted %d", i, p.ops, j, q.ops)
			}
			if p.work.repeatable(w.churn, first) != q.work.repeatable(w.churn, first) ||
				p.rangeWork.repeatable(w.churn, first) != q.rangeWork.repeatable(w.churn, first) {
				return fmt.Errorf("pass %d work counters differ from pass %d:\n%+v\n%+v", i, j, p.work, q.work)
			}
		}
		// Inline rebuilds happen where the op stream puts them and nowhere
		// else: two per interleaved pass, none in a read pass.
		if p.work.rebuilds != wantRebuilds {
			return fmt.Errorf("pass %d rebuilt shards %d times, the op stream calls for %d", i, p.work.rebuilds, wantRebuilds)
		}
		r.rebuilds += p.work.rebuilds
		hist = append(hist, p)
		if withKNN {
			r.lastRead = p
		}
		readOps += p.total()
		r.rep.failed += p.wrong
		r.fastest.fastest(p)
		for k := 0; k < w.writesPerRead; k++ {
			if err := r.writePass(true); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(r.cfg.log, "best slices, by phase  %.4fs %.4fs %.4fs\n", r.fastest.phase(0).Seconds(), r.fastest.phase(1).Seconds(), r.fastest.phase(2).Seconds())
	r.gcPerPass = float64(gcs) / float64(passes)
	r.allocsPerOp = float64(mallocs) / float64(readOps)
	r.rep.attempted += readOps
	if w.churn {
		r.writeWork, r.writeOps = r.lastRead.work, 2*len(in.writes)*passes
	}
	return nil
}

// writePass runs one write pass. A timed pass replays the write stream in
// the workload's rounds and folds its latencies into the best; a rebuilding
// pass replays it in one round, so that shards overflow, and feeds the
// rebuild and page-split counters (as a timed pass does where the workload
// has no rebuilding ones).
//
// Timed write passes run between the read passes, never in a block of their
// own: all of a run's take under half a second together, and a block that
// short fell as a whole into one of the host's slow stretches in one run of
// five (sharded insert p50 0.55 µs for 0.37, index 0.24 for 0.16). On a
// Sharded they can run on the measured instance: a round's deletes find its
// inserts still buffered, so a pass leaves no backlog behind and the next
// read pass starts from the state the last one did. A wazi.Index does not
// undo a page split when the point is deleted, so its writes go to a twin.
func (r *runner) writePass(timed bool) error {
	w, in, rec, sys := r.cfg.w, r.in, r.rec, r.sys
	if r.twin != nil {
		sys = r.twin
	}
	// Ops faster than about 2µs are timed in groups; a Sharded write
	// (copy-on-write buffer, snapshot swap) and a request are slower, and
	// timed one by one each gets its own chance to run undisturbed.
	g := group
	if w.sharded {
		g = 1
	}
	round := len(in.writes)
	if timed && w.writeRound > 0 {
		round = w.writeRound
	}
	p := writePass(sys.tgt, sys.counts, in, rec, g, round)
	fmt.Fprintf(r.cfg.log, "write pass  insert p50 %7.3f  delete p50 %7.3f us  %.3fs  %d rebuilds\n",
		median(rec.cur.inserts[:rec.nInserts]), median(rec.cur.deletes[:rec.nDeletes]), p.wall().Seconds(), p.work.rebuilds)
	r.rep.attempted += p.total()
	r.rep.failed += p.wrong
	if timed {
		rec.foldWrites()
		if p.work.rebuilds != 0 {
			return fmt.Errorf("a timed write pass rebuilt a shard: rounds of %d writes should never fill a buffer", round)
		}
	}
	if !timed || w.rebuildPasses == 0 {
		if r.writeOps == 0 {
			r.writeWork = p.work
		}
		r.writeOps += p.total()
		r.rebuilds += p.work.rebuilds
	}
	return nil
}

// finishWrites runs the rebuilding write passes, which leave tombstones and
// so come after everything else, then checks that the contents survived all
// the writes.
func (r *runner) finishWrites() error {
	for i := 0; i < r.cfg.w.rebuildPasses; i++ {
		if err := r.writePass(false); err != nil {
			return err
		}
	}
	for _, sys := range []*system{r.sys, r.twin} {
		if sys == nil {
			continue
		}
		size, sum := sys.contents()
		r.rep.attempted++
		if size != r.size || sum != r.sum {
			r.rep.failed++
			fmt.Fprintf(r.cfg.log, "contents after the write passes: %d points sum %x, before: %d points sum %x\n", size, sum, r.size, r.sum)
		}
		r.rep.failed += sys.tgt.failures()
	}
	return nil
}

// touch replays the head of each read stream, unverified and untimed.
func touch(t target, in *inputs) {
	for _, r := range in.ranges[:min(firstTouch, len(in.ranges))] {
		t.rangeQuery(r)
	}
	for _, p := range in.lookups[:min(firstTouch, len(in.lookups))] {
		t.pointQuery(p)
	}
	for _, p := range in.knn[:min(10, len(in.knn))] {
		t.knn(p, knnK)
	}
}
