package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	wazi "github.com/wazi-index/wazi"
)

// spec is one workload: which entry point is driven, on which backend, with
// which op counts. The reasons for each are recorded in README.md.
type spec struct {
	name       string
	sharded    bool // wazi.Sharded (4 shards, 2 workers) instead of one wazi.Index
	cachePages int  // per-shard block cache of the disk backend; 0 selects RAM
	wal        bool // write-ahead log, flush policy "none"
	http       bool // driven through internal/server on a loopback socket
	churn      bool // one pass interleaves reads and writes
	zipf       bool // Zipfian range centres instead of skewed check-ins
	sz         sizes
	knnEvery   int // the kNN phase runs in every knnEvery-th read pass
	readPasses int // timed passes at the default run length
	// Write passes (none under churn, whose passes write). writesPerRead
	// timed write passes follow each read pass; each replays the write stream
	// in rounds of writeRound inserts, a round deleted before the next starts
	// (0: the whole stream is one round). rebuildPasses more passes at the
	// end of the run replay it in one round, so that shards overflow and
	// rebuild.
	writesPerRead, writeRound, rebuildPasses int
}

const (
	shards  = 4
	workers = 2
	// procs is GOMAXPROCS: one, on a machine with two vCPUs. The host gives
	// the two about one core's worth when it is busy and more when it is not,
	// so whatever ran on the second (the fan-out pool's other worker, the
	// garbage collector's, the HTTP server while the client waits) measured
	// the host's mood: with a one-thread busy loop beside the benchmark, a
	// sharded kNN read 1 690 µs then 1 930-2 050 µs on two processors and
	// 2 030-2 160 µs either way on one. Over HTTP two processors also let the
	// scheduler wake the server's goroutines on the idle thread, which costs
	// more than the request: best-of-13 range p50 moved 47-54 µs between runs
	// of one seed, against 42.5-43.4 µs on one processor.
	procs = 1
)

// workloads are the four benchmark workloads at full size.
var workloads = []spec{
	{name: "index-ram",
		sz:       sizes{n: 128_000, train: 2_000, ranges: 20_000, lookups: 20_480, knn: 8_000, writes: 16_384},
		knnEvery: 1, readPasses: 41, writesPerRead: 2},
	{name: "sharded-disktight", sharded: true, cachePages: 64, zipf: true,
		sz:       sizes{n: 128_000, train: 2_000, ranges: 20_000, lookups: 20_480, knn: 600, writes: 4_096},
		knnEvery: 4, readPasses: 21, writesPerRead: 6, writeRound: 1_024, rebuildPasses: 2},
	{name: "sharded-wal-churn", sharded: true, wal: true, churn: true,
		sz:       sizes{n: 128_000, train: 2_000, ranges: 8_192, lookups: 20_480, knn: 400, writes: 4_096},
		knnEvery: 4, readPasses: 21},
	{name: "serve-diskwarm", sharded: true, cachePages: 4096, http: true, zipf: true,
		sz:       sizes{n: 128_000, train: 2_000, ranges: 3_000, lookups: 3_000, knn: 400, writes: 1_024},
		knnEvery: 4, readPasses: 21, writesPerRead: 2},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// system is a built instance of the program under one workload.
type system struct {
	idx *wazi.Index   // index-ram
	sh  *wazi.Sharded // every other workload
	ln  *listener     // serve-diskwarm
	cli *httpClient
	tgt target
	dir string // page files and WAL segments; empty on pure RAM
}

// shardedOptions are the options every Sharded in the benchmark shares:
// fixed shard and worker counts, and both background control loops off so
// that compaction runs inline in the writer and rebuild counts are exact.
func shardedOptions(extra ...wazi.ShardedOption) []wazi.ShardedOption {
	return append([]wazi.ShardedOption{
		wazi.WithShards(shards), wazi.WithWorkers(workers),
		wazi.WithoutAutoRebuild(), wazi.WithoutAutoRepartition(),
	}, extra...)
}

// open builds the workload's index over in (and opens its listener). dir is
// a fresh directory for page files and the WAL.
func open(w spec, in *inputs, dir string) (*system, error) {
	s := &system{}
	if !w.sharded {
		idx, err := wazi.NewWorkloadAware(in.points, in.train)
		if err != nil {
			return nil, err
		}
		s.idx, s.tgt = idx, &direct{lib: idx}
		return s, nil
	}
	var opts []wazi.ShardedOption
	if w.cachePages > 0 || w.wal {
		s.dir = dir
	}
	if w.cachePages > 0 {
		opts = append(opts, wazi.WithShardedStorage(filepath.Join(dir, "pages"), w.cachePages))
	}
	if w.wal {
		opts = append(opts, wazi.WithWAL(filepath.Join(dir, "wal")), wazi.WithWALSync("none"))
	}
	sh, err := wazi.NewSharded(in.points, in.train, shardedOptions(opts...)...)
	if err != nil {
		return nil, err
	}
	s.sh, s.tgt = sh, &direct{lib: sh}
	if w.http {
		if s.ln, err = listen(sh); err != nil {
			sh.Close()
			return nil, err
		}
		s.cli = newHTTPClient(s.ln.addr)
		s.tgt = s.cli
	}
	return s, nil
}

// close stops the listener and releases the index and its files.
func (s *system) close() error {
	var err error
	if s.ln != nil {
		s.cli.close()
		err = s.ln.close()
	}
	if s.sh != nil {
		s.sh.Close()
	}
	if s.idx != nil {
		if cerr := s.idx.Close(); err == nil {
			err = cerr
		}
	}
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// counts reads the program's public counters.
func (s *system) counts() counts {
	if s.sh == nil {
		return counts{work: s.idx.Stats().AtomicSnapshot()}
	}
	o := s.sh.Obs()
	return counts{work: s.sh.Stats(), rebuilds: s.sh.Rebuilds(), fanQueries: o.FanoutWidth.Count(),
		fanWidth: o.FanoutWidth.Sum(), fanPruned: o.FanoutPruned.Value()}
}

// contents returns the number of indexed points and their multiset checksum.
func (s *system) contents() (int, uint64) {
	if s.sh != nil {
		sum, n := s.sh.ContentChecksum()
		if n != s.sh.Len() {
			return -1, 0
		}
		return n, sum
	}
	return s.idx.Len(), wazi.MultisetChecksum(s.idx.Points())
}

// memBytes is the index's own report of its in-memory footprint.
func (s *system) memBytes() int64 {
	if s.sh != nil {
		return s.sh.Bytes()
	}
	return s.idx.Bytes()
}

// diskBytes sums the sizes of the page files under the system's directory.
func (s *system) diskBytes() (int64, error) {
	if s.dir == "" {
		return 0, nil
	}
	return dirBytes(filepath.Join(s.dir, "pages"))
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return fs.SkipAll
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("sizing %s: %w", dir, err)
	}
	return total, nil
}
