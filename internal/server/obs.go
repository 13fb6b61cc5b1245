package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/obs"
	"github.com/wazi-index/wazi/internal/workload"
)

// This file wires the obs instruments into the serving layer: the metrics
// registry behind /metrics and /statsz, per-route latency histograms and
// phase counters, the slow log behind /debug/slowlog, optional pprof, and the periodic
// one-line ops summary waziserve logs.

// obsBackend is the optional backend surface the registry scrapes shard-
// level instruments from; *wazi.Sharded (via the Sharded adapter) provides
// it, test doubles usually don't.
type obsBackend interface {
	Obs() *wazi.ShardedObs
}

// routes are the op endpoints: the path under /v1/, the route label of every
// per-route series and, for the six single-op routes, the wire kind served.
var routes = []string{
	workload.WireRange, workload.WireCount, workload.WirePoint, workload.WireKNN,
	workload.WireInsert, workload.WireDelete, "batch",
}

// routeObs is one route's instruments, resolved once so that folding a
// request takes no registry lookup.
type routeObs struct {
	hist    *obs.Histogram
	ok      *obs.Counter // wazi_http_requests_total{code="200"}
	phaseNS [obs.NPhases]atomic.Int64
}

const requestsTotal = "wazi_http_requests_total"

// initObs builds the registry and registers every layer's instruments.
// Called once from New.
func (s *Server) initObs() {
	reg := obs.NewRegistry()
	s.reg = reg
	s.rt = obs.NewRuntime()
	s.slow = obs.NewSlowLog(s.cfg.SlowLogSize, s.cfg.SlowQueryThreshold)

	s.routes = make([]routeObs, len(routes))
	for i, route := range routes {
		ro := &s.routes[i]
		ro.hist = reg.Histogram("wazi_http_request_seconds",
			"HTTP request latency by route, admission wait included.",
			obs.DefBuckets(), obs.L("route", route))
		ro.ok = reg.Counter(requestsTotal, "HTTP requests by route and status code.", obs.L("route", route), obs.L("code", "200"))
		// Counters, not histograms: a budget is a sum, and the outliers live
		// in the slow log.
		for p := range ro.phaseNS {
			ns := &ro.phaseNS[p]
			reg.CounterFunc("wazi_request_phase_seconds_total",
				"Handler wall time by route and phase; the phases of a route sum to its wazi_http_request_seconds_sum.",
				func() float64 { return time.Duration(ns.Load()).Seconds() },
				obs.L("route", route), obs.L("phase", obs.Phase(p).String()))
		}
	}
	s.reqAll = obs.NewHistogram(obs.DefBuckets())

	// Admission gate.
	reg.GaugeFunc("wazi_http_inflight", "Admitted requests currently executing.",
		func() float64 { return float64(s.gate.inflight.Load()) })
	reg.GaugeFunc("wazi_http_queued", "Requests waiting for an admission slot.",
		func() float64 { return float64(s.gate.queued.Load()) })
	reg.CounterFunc("wazi_http_admitted_total", "Requests admitted by the gate.",
		func() float64 { return float64(s.gate.admitted.Load()) })
	reg.CounterFunc("wazi_http_shed_total", "Requests shed with 429 by the gate.",
		func() float64 { return float64(s.gate.shed.Load()) })
	reg.CounterFunc("wazi_ops_served_total", "Logical index operations served (batch ops count individually).",
		func() float64 { return float64(s.ops.Load()) })
	s.panics = reg.Counter("wazi_http_panics_total", "Handler panics answered with 500.")
	// Monotonic since start, so a counter — a scraper can rate() it; as a
	// gauge the _total name would lie about resets.
	reg.CounterFunc("wazi_slowlog_recorded_total", "Slow requests recorded since start.",
		func() float64 { return float64(s.slow.Recorded()) })

	// Backend shape and progress.
	reg.GaugeFunc("wazi_index_points", "Points currently indexed.",
		func() float64 { return float64(s.b.Len()) })
	reg.GaugeFunc("wazi_index_shards", "Shards of the current partition plan.",
		func() float64 { return float64(s.b.NumShards()) })
	reg.CounterFunc("wazi_index_rebuilds_total", "Shard rebuilds completed.",
		func() float64 { return float64(s.b.Rebuilds()) })
	reg.CounterFunc("wazi_index_repartitions_total", "Live plan migrations completed.",
		func() float64 { return float64(s.b.Repartitions()) })
	reg.GaugeFunc("wazi_index_plan_epoch", "Partition plan epoch.",
		func() float64 { return float64(s.b.PlanEpoch()) })
	reg.GaugeFunc("wazi_index_migrating", "1 while a plan migration is in flight.",
		func() float64 {
			if s.b.Migrating() {
				return 1
			}
			return 0
		})

	// Block-cache counters, from the aggregated index stats.
	reg.CounterFunc("wazi_cache_hits_total", "Block-cache hits across all shards.",
		func() float64 { return float64(s.b.Stats().CacheHits) })
	reg.CounterFunc("wazi_cache_misses_total", "Block-cache misses across all shards.",
		func() float64 { return float64(s.b.Stats().CacheMisses) })
	reg.CounterFunc("wazi_cache_evictions_total", "Block-cache evictions across all shards.",
		func() float64 { return float64(s.b.Stats().CacheEvictions) })

	// Shard-layer instruments, when the backend carries them.
	if ob, ok := s.b.(obsBackend); ok {
		if so := ob.Obs(); so != nil {
			reg.RegisterHistogram("wazi_fanout_width_shards",
				"Shards targeted per fan-out query after pruning.", so.FanoutWidth)
			reg.CounterFunc("wazi_fanout_pruned_total", "Shards pruned from fan-outs.",
				func() float64 { return float64(so.FanoutPruned.Value()) })
			reg.RegisterHistogram("wazi_shard_scan_seconds", "Per-shard scan latency.", so.ShardScan)
			reg.RegisterHistogram("wazi_page_read_seconds", "Disk page-file read latency (cache misses).", so.PageRead)
			reg.RegisterHistogram("wazi_shard_rebuild_seconds", "Drift/compaction shard rebuild durations.", so.Rebuild)
			reg.RegisterHistogram("wazi_migration_seconds", "Live repartition migration durations.", so.Migration)
			reg.RegisterHistogram("wazi_wal_fsync_seconds", "Write-ahead-log fsync latency.", so.WALFsync)
		}
	}

	s.registerWALMetrics()
	s.registerProfileMetrics()

	s.rt.Register(reg)
	s.lastLine.at = s.start
}

// registerProfileMetrics exports the anomaly-capture counters and wires the
// GC-pause SLO into the runtime sampler. Families are registered even when
// capture is disabled (all zeros), so dashboards and waziload's scrape
// deltas never see a family appear out of nowhere.
func (s *Server) registerProfileMetrics() {
	reg, p := s.reg, s.prof
	if p == nil {
		p = new(profiler) // capture disabled: the counters stay zero
	}
	reg.CounterFunc("wazi_profile_captures_total", "Anomaly-triggered profile captures completed.",
		func() float64 { return float64(p.captured.Load()) })
	reg.CounterFunc("wazi_profile_triggers_total", "Capture triggers observed (slow-query breaches, GC-pause SLO trips).",
		func() float64 { return float64(p.triggered.Load()) })
	reg.CounterFunc("wazi_profile_skipped_total", "Capture triggers dropped by the cooldown or an in-flight capture.",
		func() float64 { return float64(p.skipped.Load()) })
	reg.CounterFunc("wazi_profile_capture_errors_total", "Errors while writing capture profiles.",
		func() float64 { return float64(p.errors.Load()) })
	reg.GaugeFunc("wazi_profile_retained", "Captures currently on disk in the bounded ring.",
		func() float64 { return float64(s.prof.retained()) })

	reg.GaugeFunc("wazi_gc_pause_slo_seconds", "Configured GC-pause SLO (0 = disabled).",
		func() float64 { return s.cfg.GCPauseSLO.Seconds() })
	reg.CounterFunc("wazi_gc_pause_slo_breaches_total", "GC pauses at or above the SLO.",
		func() float64 { return float64(s.gcBreaches.Load()) })
	if slo := s.cfg.GCPauseSLO; slo > 0 {
		s.rt.SetPauseHook(func(d time.Duration) {
			if d >= slo {
				s.gcBreaches.Add(1)
				s.prof.trigger("gc_pause_slo")
			}
		})
	}
}

// Registry returns the server's metrics registry, for tests and for
// embedding extra process-level series before serving.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ---------------------------------------------------------------- endpoints

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "/metrics requires GET")
		return
	}
	s.rt.Sample() // refresh the GC pause histogram before exporting
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// slowlogResp is the JSON shape of /debug/slowlog.
type slowlogResp struct {
	ThresholdNS int64           `json:"threshold_ns"`
	Recorded    int64           `json:"recorded"`
	Entries     []obs.SlowEntry `json:"entries"`
}

func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "/debug/slowlog requires GET")
		return
	}
	writeJSON(w, http.StatusOK, slowlogResp{
		ThresholdNS: int64(s.cfg.SlowQueryThreshold),
		Recorded:    s.slow.Recorded(),
		Entries:     s.slow.Snapshot(),
	})
}

// mountPprof exposes net/http/pprof under /debug/pprof/. Gated behind
// Config.Pprof because profiling endpoints on a serving port are an
// operational decision, not a default.
func (s *Server) mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ---------------------------------------------------------------- summaries

// lineWindow is the state StatsLine differences against: the previous
// call's aggregate latency snapshot, op count, cache counters, and time.
type lineWindow struct {
	mu    sync.Mutex
	at    time.Time
	hist  obs.HistogramSnapshot
	ops   int64
	stats wazi.Stats
}

// StatsLine returns a one-line ops summary — qps, windowed p95, cache hit
// rate, heap, goroutines — where every rate is computed over the window
// since the previous StatsLine call. waziserve logs it on -log-interval.
func (s *Server) StatsLine() string {
	now := time.Now()
	hist := s.reqAll.Snapshot()
	ops := s.ops.Load()
	stats := s.b.Stats()

	s.lastLine.mu.Lock()
	prev := lineWindow{at: s.lastLine.at, hist: s.lastLine.hist, ops: s.lastLine.ops, stats: s.lastLine.stats}
	s.lastLine.at, s.lastLine.hist, s.lastLine.ops, s.lastLine.stats = now, hist, ops, stats
	s.lastLine.mu.Unlock()

	dt := now.Sub(prev.at).Seconds()
	if dt <= 0 {
		dt = 1
	}
	qps := float64(ops-prev.ops) / dt

	p95 := 0.0
	if len(hist.Buckets) == len(prev.hist.Buckets) {
		bounds := make([]float64, len(hist.Buckets))
		counts := make([]int64, len(hist.Buckets))
		for i := range hist.Buckets {
			bounds[i] = hist.Buckets[i].UpperBound
			counts[i] = hist.Buckets[i].Count - prev.hist.Buckets[i].Count
		}
		p95 = obs.QuantileFromBuckets(bounds, counts, 0.95)
	} else if len(hist.Buckets) > 0 {
		// First call: no previous window, use lifetime quantile.
		p95 = hist.P95
	}

	dh := stats.CacheHits - prev.stats.CacheHits
	dm := stats.CacheMisses - prev.stats.CacheMisses
	hitRate := 0.0
	if dh+dm > 0 {
		hitRate = 100 * float64(dh) / float64(dh+dm)
	}

	ms := s.rt.Sample()
	return fmt.Sprintf("ops=%d qps=%.1f p95=%.2fms cache_hit=%.1f%% heap=%.1fMB goroutines=%d",
		ops, qps, p95*1e3, hitRate, float64(ms.HeapAlloc)/(1<<20), runtime.NumGoroutine())
}

// CountersLine returns the final cumulative counters, logged by waziserve
// after the SIGTERM drain completes.
func (s *Server) CountersLine() string {
	stats := s.b.Stats()
	return fmt.Sprintf("ops=%d admitted=%d shed=%d cache_hits=%d cache_misses=%d slow_queries=%d",
		s.ops.Load(), s.gate.admitted.Load(), s.gate.shed.Load(),
		stats.CacheHits, stats.CacheMisses, s.slow.Recorded())
}

// obsSnapshot is the structured registry snapshot /statsz embeds.
func (s *Server) obsSnapshot() obs.Snapshot { return s.reg.Snapshot() }
