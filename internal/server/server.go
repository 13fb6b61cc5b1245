// Package server exposes a wazi.Sharded index over HTTP/JSON — the serving
// boundary of the build-offline/serve-online deployment model (§6.5 of the
// paper), hardened for sustained traffic:
//
//   - admission control: a semaphore gate with a bounded waiting queue is
//     the one bound on index concurrency — every op runs on the handler
//     goroutine that holds its slot — and sheds overload with 429s instead
//     of collapsing (admission.go);
//   - warm starts: graceful shutdown drains in-flight requests and writes a
//     Sharded snapshot that the next process restores without rebuilding
//     (serve.go, wazi.Sharded.Save/LoadSharded).
//
// Endpoints (all op endpoints are POST with JSON bodies; see docs/SERVING.md):
//
//	/v1/range   {"rect":{...}}             -> {"count":n,"points":[...]}
//	/v1/count   {"rect":{...}}             -> {"count":n}
//	/v1/point   {"point":{...}}            -> {"found":bool}
//	/v1/knn     {"point":{...},"k":k}      -> {"count":k,"points":[...]}
//	/v1/insert  {"point":{...}}            -> {"ok":true}
//	/v1/delete  {"point":{...}}            -> {"found":bool}
//	/v1/batch   {"ops":[{"op":...},...]}   -> {"results":[...]}
//	/healthz    GET                        -> {"status":"ok",...}
//	/statsz     GET                        -> counters, shard + drift + WAL state
//	/debug/checksum GET                    -> full-contents multiset checksum
//
// The wire shapes are internal/workload's WireOp encoding, so scenario
// suites replay over the network byte-for-byte as cmd/waziload sends them.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/obs"
	"github.com/wazi-index/wazi/internal/workload"
)

// ReadView is one consistent read pass over the index: every query through
// one ReadView observes the same immutable snapshot. wazi.View implements
// it. The Append variants exist so the handlers can cycle pooled response
// buffers through the index instead of allocating a result slice per
// request.
type ReadView interface {
	RangeQuery(r wazi.Rect) []wazi.Point
	RangeQueryAppend(dst []wazi.Point, r wazi.Rect) []wazi.Point
	RangeCount(r wazi.Rect) int
	PointQuery(p wazi.Point) bool
	KNN(q wazi.Point, k int) []wazi.Point
	KNNAppend(dst []wazi.Point, q wazi.Point, k int) []wazi.Point
}

// Backend is the index the server serves. The production backend is
// Sharded(*wazi.Sharded); tests substitute doubles to probe overload and
// failure behavior.
type Backend interface {
	View() ReadView
	Insert(p wazi.Point)
	Delete(p wazi.Point) bool
	Len() int
	NumShards() int
	Rebuilds() int64
	Repartitions() int64
	PlanEpoch() int
	Migrating() bool
	Stats() wazi.Stats
	Shards() []wazi.ShardInfo
	Save(w io.Writer) error
}

// shardedBackend adapts *wazi.Sharded to Backend (View's concrete return
// type needs the one-line indirection).
type shardedBackend struct{ *wazi.Sharded }

func (b shardedBackend) View() ReadView { return b.Sharded.View() }

// Sharded wraps a *wazi.Sharded as a serving Backend.
func Sharded(s *wazi.Sharded) Backend { return shardedBackend{s} }

// Config tunes the serving layer. The zero value is usable: every field
// has a sensible default.
type Config struct {
	// MaxInflight is the number of admitted requests executing at once
	// (default 4x GOMAXPROCS).
	MaxInflight int
	// MaxQueue is how many further requests may wait for an admission slot
	// before the gate sheds with 429s (default 4x MaxInflight). Zero means
	// "default"; use NoQueue for a queueless gate.
	MaxQueue int
	// NoQueue disables the waiting queue: any request beyond MaxInflight is
	// shed immediately.
	NoQueue bool
	// SnapshotPath, when set, is where graceful shutdown writes the
	// warm-start snapshot.
	SnapshotPath string
	// DrainTimeout bounds graceful shutdown's wait for in-flight requests
	// (default 10s).
	DrainTimeout time.Duration
	// SlowQueryThreshold is the total request duration at which a traced
	// request enters the slow-query log at /debug/slowlog (default 250ms).
	// Negative records every request (useful in tests).
	SlowQueryThreshold time.Duration
	// SlowLogSize bounds the slow-query ring buffer (default 128).
	SlowLogSize int
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// ProfileDir enables anomaly-triggered profile capture: when a slow
	// query enters the slow-query log, or a GC pause breaches GCPauseSLO,
	// CPU+heap pprof profiles are written into a bounded ring of capture
	// directories under this path, listed and fetched via /debug/profilez.
	// Empty disables capture (the endpoint still answers, enabled=false).
	ProfileDir string
	// ProfileMaxCaptures bounds the on-disk capture ring; oldest captures
	// are deleted first (default 8).
	ProfileMaxCaptures int
	// ProfileCooldown is the minimum spacing between captures, so an
	// anomaly storm produces one profile, not hundreds (default 30s;
	// negative means no cooldown).
	ProfileCooldown time.Duration
	// ProfileCPUDuration is how long each capture's CPU profile runs
	// (default 1s).
	ProfileCPUDuration time.Duration
	// GCPauseSLO, when positive, is the stop-the-world GC pause duration
	// that counts as an SLO breach: breaches are counted in
	// wazi_gc_pause_slo_breaches_total and trigger a profile capture.
	// Breaches are detected when the runtime sampler observes new pauses
	// (scrapes, stats lines), not at the instant the pause ends.
	GCPauseSLO time.Duration
}

func (c *Config) fill() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.NoQueue {
		c.MaxQueue = 0
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	switch {
	case c.SlowQueryThreshold == 0:
		c.SlowQueryThreshold = 250 * time.Millisecond
	case c.SlowQueryThreshold < 0:
		c.SlowQueryThreshold = 0 // record everything
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 128
	}
	if c.ProfileMaxCaptures <= 0 {
		c.ProfileMaxCaptures = 8
	}
	switch {
	case c.ProfileCooldown == 0:
		c.ProfileCooldown = 30 * time.Second
	case c.ProfileCooldown < 0:
		c.ProfileCooldown = 0
	}
	if c.ProfileCPUDuration <= 0 {
		c.ProfileCPUDuration = time.Second
	}
}

// maxBodyBytes bounds request bodies; a 64k-op batch of ~100 bytes/op fits
// comfortably.
const maxBodyBytes = 8 << 20

// Server is the HTTP serving layer over a Backend.
type Server struct {
	b     Backend
	cfg   Config
	gate  *gate
	mux   *http.ServeMux
	start time.Time
	ops   atomic.Int64 // logical index operations served (batch ops count individually)

	// Observability (obs.go): registry behind /metrics and /statsz, runtime
	// sampler, slow-query log, per-route latency histograms, and the
	// all-routes aggregate StatsLine windows over.
	reg       *obs.Registry
	rt        *obs.Runtime
	slow      *obs.SlowLog
	routeHist map[string]*obs.Histogram
	reqAll    *obs.Histogram
	panics    *obs.Counter
	lastLine  lineWindow

	// Anomaly-triggered profile capture (profilez.go): nil unless
	// Config.ProfileDir is set.
	prof       *profiler
	gcBreaches atomic.Int64
}

// New builds a Server.
func New(b Backend, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		b:     b,
		cfg:   cfg,
		gate:  newGate(cfg.MaxInflight, cfg.MaxQueue),
		start: time.Now(),
	}
	s.prof = newProfiler(cfg.ProfileDir, cfg.ProfileMaxCaptures, cfg.ProfileCooldown, cfg.ProfileCPUDuration)
	s.initObs()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/range", s.opHandler("range", s.handleRange))
	mux.HandleFunc("/v1/count", s.opHandler("count", s.handleCount))
	mux.HandleFunc("/v1/point", s.opHandler("point", s.handlePoint))
	mux.HandleFunc("/v1/knn", s.opHandler("knn", s.handleKNN))
	mux.HandleFunc("/v1/insert", s.opHandler("insert", s.handleInsert))
	mux.HandleFunc("/v1/delete", s.opHandler("delete", s.handleDelete))
	mux.HandleFunc("/v1/batch", s.opHandler("batch", s.handleBatch))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("/debug/profilez", s.handleProfilez)
	mux.HandleFunc("/debug/profilez/", s.handleProfilezFetch)
	mux.HandleFunc("/debug/checksum", s.handleChecksum)
	if cfg.Pprof {
		s.mountPprof(mux)
	}
	s.mux = mux
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// ---------------------------------------------------------------- plumbing

type errorResp struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResp{Error: fmt.Sprintf(format, args...)})
}

// decode parses a JSON request body into v, rejecting trailing garbage.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// opHandler wraps an op endpoint with method filtering, admission control,
// and observability: the slot is held for the whole request, so MaxInflight
// bounds every kind of in-flight work and MaxQueue bounds the line behind
// it. Every request carries a QueryTrace in its context; the admission wait
// becomes the trace's first span, the request's total latency lands in the
// per-route histogram, and slow requests enter the slow-query log. A panic
// under the handler (DiskStore raises page-file I/O errors as panics) fails
// that one request with a 500: the slot is released and the connection and
// the process keep serving.
func (s *Server) opHandler(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.routeHist[route]
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "%s requires POST", r.URL.Path)
			s.status(route, http.StatusMethodNotAllowed)
			return
		}
		tr := obs.NewTrace(route)
		r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
		admit := time.Now()
		release, err := s.gate.acquire(r.Context())
		if err != nil {
			code := http.StatusServiceUnavailable
			if errors.Is(err, errShed) {
				w.Header().Set("Retry-After", "1")
				code = http.StatusTooManyRequests
				writeError(w, code, "overloaded: admission queue full")
			} else {
				writeError(w, code, "canceled while queued: %v", err)
			}
			s.status(route, code)
			hist.ObserveSince(admit)
			s.reqAll.ObserveSince(admit)
			return
		}
		tr.AddSpan("admission", admit, time.Since(admit), nil)
		sw := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				log.Printf("server: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal error: %v", p)
				}
				sw.code = http.StatusInternalServerError
			}
			release()
			tr.Finish()
			d := tr.Total()
			hist.Observe(d.Seconds())
			s.reqAll.Observe(d.Seconds())
			s.status(route, sw.code)
			if sw.code == http.StatusOK && d >= s.slow.Threshold() {
				if s.slow.Record(tr.Snapshot()) {
					// A slow-query breach is the anomaly the profile ring
					// exists for: capture while the cause is still hot.
					s.prof.trigger("slow_query")
				}
			}
		}()
		h(sw, r)
	}
}

// view pins the one snapshot a request reads and hands it the request's
// trace when it supports tracing (the production *wazi.View); doubles pass
// through untouched.
func (s *Server) view(r *http.Request) ReadView {
	v := s.b.View()
	if wv, ok := v.(*wazi.View); ok {
		return wv.WithTrace(obs.FromContext(r.Context()))
	}
	return v
}

// pointBufPool recycles the response point buffers of the range and kNN
// handlers, closing the last allocation gap of a steady-state read: the
// index fan-out already runs on a pooled query arena, and with this the
// result set lands in a reused buffer too.
var pointBufPool = sync.Pool{New: func() any { return new(pointBuf) }}

type pointBuf struct{ pts []wazi.Point }

// maxPointBuf bounds the capacity a buffer may carry back into the pool, so
// one huge result does not pin its high-water mark forever.
const maxPointBuf = 1 << 16

func (b *pointBuf) release() {
	if cap(b.pts) > maxPointBuf {
		b.pts = nil
	} else {
		b.pts = b.pts[:0]
	}
	pointBufPool.Put(b)
}

// writePoints answers a range or kNN request out of its pooled buffer and
// recycles the buffer once the response is encoded.
func (s *Server) writePoints(w http.ResponseWriter, b *pointBuf) {
	s.ops.Add(1)
	writeJSON(w, http.StatusOK, rangeResp{Count: len(b.pts), Points: b.pts})
	b.release()
}

// ---------------------------------------------------------------- requests

type rectReq struct {
	Rect *wazi.Rect `json:"rect"`
}

type pointReq struct {
	Point *wazi.Point `json:"point"`
}

type knnReq struct {
	Point *wazi.Point `json:"point"`
	K     int         `json:"k"`
}

type batchReq struct {
	Ops []workload.WireOp `json:"ops"`
}

type rangeResp struct {
	Count  int          `json:"count"`
	Points []wazi.Point `json:"points"`
}

type countResp struct {
	Count int `json:"count"`
}

type foundResp struct {
	Found bool `json:"found"`
}

type okResp struct {
	OK bool `json:"ok"`
}

type batchResp struct {
	Results []any `json:"results"`
}

// ---------------------------------------------------------------- handlers

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req rectReq
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	op := workload.WireOp{Op: workload.WireRange, Rect: req.Rect}
	if err := op.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	b := pointBufPool.Get().(*pointBuf)
	b.pts = s.view(r).RangeQueryAppend(b.pts[:0], *req.Rect)
	s.writePoints(w, b)
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	var req rectReq
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	op := workload.WireOp{Op: workload.WireCount, Rect: req.Rect}
	if err := op.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n := s.view(r).RangeCount(*req.Rect)
	s.ops.Add(1)
	writeJSON(w, http.StatusOK, countResp{Count: n})
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	var req pointReq
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	op := workload.WireOp{Op: workload.WirePoint, Point: req.Point}
	if err := op.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	found := s.view(r).PointQuery(*req.Point)
	s.ops.Add(1)
	writeJSON(w, http.StatusOK, foundResp{Found: found})
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req knnReq
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	op := workload.WireOp{Op: workload.WireKNN, Point: req.Point, K: req.K}
	if err := op.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	b := pointBufPool.Get().(*pointBuf)
	b.pts = s.view(r).KNNAppend(b.pts[:0], *req.Point, req.K)
	s.writePoints(w, b)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req pointReq
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	op := workload.WireOp{Op: workload.WireInsert, Point: req.Point}
	if err := op.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.b.Insert(*req.Point)
	s.ops.Add(1)
	writeJSON(w, http.StatusOK, okResp{OK: true})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req pointReq
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	op := workload.WireOp{Op: workload.WireDelete, Point: req.Point}
	if err := op.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	found := s.b.Delete(*req.Point)
	s.ops.Add(1)
	writeJSON(w, http.StatusOK, foundResp{Found: found})
}

// handleBatch executes a mixed multi-op request under ONE admission slot:
// client-side batching. Reads run against a lazily pinned view that is
// re-pinned after every write, so within one batch reads observe the
// batch's own earlier writes, and runs of consecutive reads share a
// snapshot. The whole batch is validated before any op executes: a
// malformed batch changes nothing.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchReq
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no ops")
		return
	}
	for i, op := range req.Ops {
		if err := op.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "op %d: %v", i, err)
			return
		}
	}
	var view ReadView
	pin := func() ReadView {
		if view == nil {
			view = s.view(r)
		}
		return view
	}
	results := make([]any, len(req.Ops))
	// The kNN ops of a batch share one pooled working buffer for their
	// window scans; each answer is copied out at its exact size.
	var knn *pointBuf
	for i, op := range req.Ops {
		switch op.Op {
		case workload.WireRange:
			pts := pin().RangeQuery(*op.Rect)
			results[i] = rangeResp{Count: len(pts), Points: pts}
		case workload.WireCount:
			results[i] = countResp{Count: pin().RangeCount(*op.Rect)}
		case workload.WirePoint:
			results[i] = foundResp{Found: pin().PointQuery(*op.Point)}
		case workload.WireKNN:
			if knn == nil {
				knn = pointBufPool.Get().(*pointBuf)
			}
			knn.pts = pin().KNNAppend(knn.pts[:0], *op.Point, op.K)
			pts := append([]wazi.Point(nil), knn.pts...)
			results[i] = rangeResp{Count: len(pts), Points: pts}
		case workload.WireInsert:
			s.b.Insert(*op.Point)
			view = nil // later reads must see this write
			results[i] = okResp{OK: true}
		case workload.WireDelete:
			found := s.b.Delete(*op.Point)
			view = nil
			results[i] = foundResp{Found: found}
		}
	}
	if knn != nil {
		knn.release()
	}
	s.ops.Add(int64(len(req.Ops)))
	writeJSON(w, http.StatusOK, batchResp{Results: results})
}

// ------------------------------------------------------------ introspection

type healthResp struct {
	Status   string `json:"status"`
	Points   int    `json:"points"`
	UptimeMS int64  `json:"uptime_ms"`
	Inflight int64  `json:"inflight"`
	Queued   int64  `json:"queued"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "/healthz requires GET")
		return
	}
	writeJSON(w, http.StatusOK, healthResp{
		Status:   "ok",
		Points:   s.b.Len(),
		UptimeMS: time.Since(s.start).Milliseconds(),
		Inflight: s.gate.inflight.Load(),
		Queued:   s.gate.queued.Load(),
	})
}

// shardState is one shard's drift/backlog/load state in /statsz.
type shardState struct {
	Shard         int     `json:"shard"`
	Points        int     `json:"points"`
	Backlog       int     `json:"backlog"`
	Drift         float64 `json:"drift"`
	Rebuilds      int     `json:"rebuilds"`
	WorkloadAware bool    `json:"workload_aware"`
	// Load is the query count this shard served under the current plan —
	// the per-shard counter the online repartitioner balances on.
	Load int64 `json:"load"`
	// PagesScanned/PointsScanned are the shard's cumulative scan work — the
	// imbalance, in work units, that repartitioning redistributes.
	PagesScanned  int64 `json:"pages_scanned"`
	PointsScanned int64 `json:"points_scanned"`
}

// statszResp surfaces the serving counters, the aggregated storage.Stats of
// the index, and per-shard drift state, including the admission metrics (is
// the gate shedding?) — the tuning knob of docs/SERVING.md.
type statszResp struct {
	Points         int          `json:"points"`
	Shards         int          `json:"shards"`
	Rebuilds       int64        `json:"rebuilds"`
	Repartitions   int64        `json:"repartitions"`
	PlanEpoch      int          `json:"plan_epoch"`
	Migrating      bool         `json:"migrating"`
	OpsServed      int64        `json:"ops_served"`
	Admitted       int64        `json:"admitted_requests"`
	Shed           int64        `json:"shed_requests"`
	Inflight       int64        `json:"inflight"`
	Queued         int64        `json:"queued"`
	CacheHits      int64        `json:"cache_hits"`
	CacheMisses    int64        `json:"cache_misses"`
	CacheEvictions int64        `json:"cache_evictions"`
	IndexStats     wazi.Stats   `json:"index_stats"`
	ShardStates    []shardState `json:"shard_states"`
	// WAL reports the write-ahead log's counters and recovery status;
	// omitted when the backend runs without one.
	WAL *wazi.WALStats `json:"wal,omitempty"`
	// Obs is the structured snapshot of every registered metric series —
	// the same data /metrics exports, in JSON, with histogram quantiles
	// precomputed.
	Obs obs.Snapshot `json:"obs"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "/statsz requires GET")
		return
	}
	stats := s.b.Stats()
	resp := statszResp{
		Points:         s.b.Len(),
		Shards:         s.b.NumShards(),
		Rebuilds:       s.b.Rebuilds(),
		Repartitions:   s.b.Repartitions(),
		PlanEpoch:      s.b.PlanEpoch(),
		Migrating:      s.b.Migrating(),
		OpsServed:      s.ops.Load(),
		Admitted:       s.gate.admitted.Load(),
		Shed:           s.gate.shed.Load(),
		Inflight:       s.gate.inflight.Load(),
		Queued:         s.gate.queued.Load(),
		CacheHits:      stats.CacheHits,
		CacheMisses:    stats.CacheMisses,
		CacheEvictions: stats.CacheEvictions,
		IndexStats:     stats,
		WAL:            s.walStats(),
		Obs:            s.obsSnapshot(),
	}
	for i, info := range s.b.Shards() {
		resp.ShardStates = append(resp.ShardStates, shardState{
			Shard:         i,
			Points:        info.Points,
			Backlog:       info.Backlog,
			Drift:         info.Drift,
			Rebuilds:      info.Rebuilds,
			WorkloadAware: info.WorkloadAware,
			Load:          info.Load,
			PagesScanned:  info.PagesScanned,
			PointsScanned: info.PointsScanned,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
