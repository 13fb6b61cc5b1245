// Command waziserve serves a WaZI Sharded index over HTTP — the network
// face of the build-offline/serve-online deployment model. It builds (or
// warm-starts) the index, exposes the /v1/* endpoints behind admission
// control, and on SIGTERM/SIGINT drains in-flight requests and writes a
// snapshot so the next start skips construction entirely.
//
// Usage:
//
//	waziserve -region NewYork -scale 200000 -snapshot wazi.snap
//	waziserve -data points.csv -shards 16 -addr :9000
//	waziserve -addr 127.0.0.1:0 -addr-file port.txt   # scripts read the bound address
//
// On start, if -snapshot names an existing file the index is restored from
// it (no rebuild); otherwise the data comes from -data (CSV "x,y" lines) or
// the synthetic -region generator, with a skewed training workload sized by
// -train. With -wal-dir every acknowledged write is appended to a
// write-ahead log before the response, and a restart over the same
// directory replays the tail — kill -9 loses nothing acknowledged (see
// docs/DURABILITY.md). See docs/SERVING.md for endpoint shapes and tuning.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/server"
	"github.com/wazi-index/wazi/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("waziserve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address (host:0 picks a random port)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once listening")
		snapshot = fs.String("snapshot", "", "warm-start snapshot: loaded on boot when present, written on graceful shutdown")
		dataPath = fs.String("data", "", "CSV point file (one \"x,y\" line per point); empty = synthetic -region data")
		region   = fs.String("region", "NewYork", "synthetic dataset region (CaliNev, NewYork, Japan, Iberia)")
		scale    = fs.Int("scale", 100_000, "synthetic dataset size")
		train    = fs.Int("train", 2_000, "training workload size (skewed check-in queries)")
		sel      = fs.Float64("sel", 0.0256e-2, "training query selectivity (fraction of data-space area)")
		seed     = fs.Int64("seed", 1, "seed for synthetic data and training workload")
		shards   = fs.Int("shards", 0, "shard count (0 = GOMAXPROCS, capped at 64); ignored on warm start")
		inflight = fs.Int("max-inflight", 0, "admitted concurrent requests (0 = 4x GOMAXPROCS)")
		queue    = fs.Int("max-queue", 0, "requests waiting for admission before 429s (0 = 4x max-inflight)")
		drain    = fs.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
		storeDir = fs.String("storage-dir", "", "disk-resident leaf pages: per-shard page files under this directory (empty = RAM-resident)")
		walDir   = fs.String("wal-dir", "", "write-ahead log directory: acknowledged writes are logged and replayed on restart (empty = no WAL)")
		walSync  = fs.String("wal-sync", "group", "WAL durability policy: group (batched fsync), always (fsync every write), none (page-cache only); needs -wal-dir")
		cachePgs = fs.Int("cache-pages", 0, "block-cache capacity per shard, in pages (0 = default 1024); needs -storage-dir")
		logEvery = fs.Duration("log-interval", 0, "log a one-line ops summary (qps, p95, cache hit rate, heap) this often; 0 disables")
		slowQ    = fs.Duration("slow-query", 0, "slow-query log threshold for /debug/slowlog (0 = default 250ms, negative records everything)")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the serving port")
		profDir  = fs.String("profile-dir", "", "anomaly-triggered profile capture: write CPU+heap pprof captures here on slow-query or GC-pause-SLO breaches (empty = disabled); browse via /debug/profilez")
		profMax  = fs.Int("profile-max", 0, "captures retained in the on-disk ring before the oldest is pruned (0 = default 8); needs -profile-dir")
		profCool = fs.Duration("profile-cooldown", 0, "minimum spacing between captures (0 = default 30s, negative = none); needs -profile-dir")
		profCPU  = fs.Duration("profile-cpu", 0, "CPU profile duration per capture (0 = default 1s); needs -profile-dir")
		gcSLO    = fs.Duration("gc-pause-slo", 0, "GC pause SLO: pauses at or above this count as breaches in /metrics and trigger captures (0 = disabled)")
	)
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "waziserve: unexpected arguments %q\n", fs.Args())
		return 2
	}
	logger := log.New(os.Stderr, "waziserve: ", log.LstdFlags)

	idx, how, err := openIndex(*snapshot, *dataPath, *region, *scale, *train, *sel, *seed, *shards, *storeDir, *cachePgs, *walDir, *walSync)
	if err != nil {
		logger.Print(err)
		return 1
	}
	defer idx.Close()
	logger.Printf("%s: %s", how, idx.Describe())
	if ws := idx.WALStats(); ws.Enabled {
		logger.Printf("wal: dir=%s sync=%s recovered_records=%d recovered_seq=%d torn=%v",
			ws.Dir, ws.Sync, ws.RecoveredRecords, ws.RecoveredSeq, ws.RecoveredTorn)
	}

	srv := server.New(server.Sharded(idx), server.Config{
		MaxInflight:        *inflight,
		MaxQueue:           *queue,
		SnapshotPath:       *snapshot,
		DrainTimeout:       *drain,
		SlowQueryThreshold: *slowQ,
		Pprof:              *pprofOn,
		ProfileDir:         *profDir,
		ProfileMaxCaptures: *profMax,
		ProfileCooldown:    *profCool,
		ProfileCPUDuration: *profCPU,
		GCPauseSLO:         *gcSLO,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if *logEvery > 0 {
		go func() {
			tick := time.NewTicker(*logEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					logger.Print(srv.StatsLine())
				}
			}
		}()
	}

	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(ctx, *addr, ready) }()
	select {
	case bound := <-ready:
		logger.Printf("listening on %s", bound)
		if *addrFile != "" {
			if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
				logger.Printf("writing -addr-file: %v", err)
				stop()
				<-errc
				return 1
			}
		}
	case err := <-errc:
		logger.Printf("listen on %s: %v", *addr, err)
		return 1
	}

	select {
	case <-ctx.Done():
		logger.Print("signal received; draining and writing snapshot")
	case err := <-errc:
		// The listener died without a signal (e.g. a permanent accept
		// failure); exit loudly instead of lingering as a zombie.
		logger.Printf("serving failed: %v", err)
		return 1
	}
	if err := <-errc; err != nil {
		logger.Printf("shutdown: %v", err)
		return 1
	}
	logger.Printf("final: %s", srv.CountersLine())
	if *snapshot != "" {
		logger.Printf("snapshot written to %s", *snapshot)
	}
	logger.Print("bye")
	return 0
}

// openIndex warm-starts from a snapshot when one exists, otherwise builds
// from CSV data or the synthetic region generator.
func openIndex(snapshot, dataPath, region string, scale, train int, sel float64, seed int64, shards int, storageDir string, cachePages int, walDir, walSync string) (*wazi.Sharded, string, error) {
	opts := []wazi.ShardedOption{}
	if storageDir != "" {
		opts = append(opts, wazi.WithShardedStorage(storageDir, cachePages))
	}
	if walDir != "" {
		opts = append(opts, wazi.WithWAL(walDir), wazi.WithWALSync(walSync))
	}
	if snapshot != "" {
		if f, err := os.Open(snapshot); err == nil {
			defer f.Close()
			idx, err := wazi.LoadSharded(f, opts...)
			if err != nil {
				return nil, "", fmt.Errorf("loading snapshot %s: %w", snapshot, err)
			}
			return idx, "warm start from " + snapshot, nil
		} else if !os.IsNotExist(err) {
			return nil, "", fmt.Errorf("opening snapshot %s: %w", snapshot, err)
		}
	}

	var (
		pts []wazi.Point
		err error
	)
	r, found := dataset.RegionByName(region)
	if !found {
		return nil, "", fmt.Errorf("unknown region %q (want CaliNev, NewYork, Japan, or Iberia)", region)
	}
	how := ""
	if dataPath != "" {
		pts, err = readCSVPoints(dataPath)
		if err != nil {
			return nil, "", err
		}
		how = fmt.Sprintf("cold start from %s (%d points)", dataPath, len(pts))
	} else {
		pts = dataset.Generate(r, scale, seed)
		how = fmt.Sprintf("cold start, synthetic %s x%d", r, scale)
	}
	qs := workload.Skewed(r, train, sel, seed+1)
	if shards > 0 {
		opts = append(opts, wazi.WithShards(shards))
	}
	idx, err := wazi.NewSharded(pts, qs, opts...)
	if err != nil {
		return nil, "", fmt.Errorf("building index: %w", err)
	}
	return idx, how, nil
}

// readCSVPoints parses one "x,y" (or "x y") point per line; blank lines and
// #-comments are skipped.
func readCSVPoints(path string) ([]wazi.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pts []wazi.Point
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want \"x,y\", got %q", path, line, text)
		}
		x, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad x %q: %w", path, line, fields[0], err)
		}
		y, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad y %q: %w", path, line, fields[1], err)
		}
		pts = append(pts, wazi.Point{X: x, Y: y})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("%s: no points", path)
	}
	return pts, nil
}
