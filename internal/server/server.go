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
// The request shapes are internal/workload's WireOp encoding, so scenario
// suites replay over the network byte-for-byte as cmd/waziload sends them.
// Every /v1 answer is appended to a pooled buffer as its op runs and sent in
// one write with Content-Length; "points" is always an array, [] if empty.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/jsonfloat"
	"github.com/wazi-index/wazi/internal/obs"
	"github.com/wazi-index/wazi/internal/workload"
)

// ReadView is one consistent read pass over the index: every query through
// one ReadView observes the same immutable snapshot. wazi.View implements
// it. Range and kNN answers are appended, so the handlers cycle one pooled
// buffer per request through the index instead of allocating result slices.
type ReadView interface {
	RangeQueryAppend(dst []wazi.Point, r wazi.Rect) []wazi.Point
	RangeCount(r wazi.Rect) int
	PointQuery(p wazi.Point) bool
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
	// SlowQueryThreshold is the total duration at which a /v1 request,
	// whatever its status, enters the slow log at /debug/slowlog (default
	// 250ms). Negative records every request (useful in tests).
	SlowQueryThreshold time.Duration
	// SlowLogSize bounds the slow log's ring buffer (default 128).
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
	// sampler, slow log, per-route instruments, and the all-routes aggregate
	// StatsLine windows over.
	reg      *obs.Registry
	rt       *obs.Runtime
	slow     *obs.SlowLog
	routes   []routeObs // indexed like routes
	reqAll   *obs.Histogram
	panics   *obs.Counter
	lastLine lineWindow

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
	for i, route := range routes {
		h := s.handleOp
		if route == "batch" {
			h = s.handleBatch
		}
		mux.HandleFunc("/v1/"+route, s.opHandler(i, h))
	}
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

// request is the record of one /v1 request, pooled: its clock, its status,
// its body and decoded op(s), the view it pinned, and the buffers its answers
// are built in. It is the http.ResponseWriter the handlers write through,
// which is how it learns the status code. One handler goroutine owns it from
// opHandler's first line to finish, so nothing in it is synchronized.
type request struct {
	http.ResponseWriter // the connection's; WriteHeader is overridden

	route int // index into routes
	code  int
	wrote bool
	// admitted is set while the request holds an admission slot.
	admitted bool
	// start is the handler's entry; last is the latest phase boundary, in
	// nanoseconds since start.
	start time.Time
	last  int64
	ph    obs.Phases

	body  bytes.Buffer    // the request body, read whole, then decoded
	op    workload.WireOp // a single-op route's body
	batch batchReq        // /v1/batch's
	// view is pinned on the first read and dropped by every write, so reads
	// after a batch's own write observe it.
	view ReadView
	pts  []wazi.Point // the range or kNN answer of the op being run
	out  []byte       // the response body: each op's answer, appended as it runs
	inf  bool         // an answer holds ±Inf or NaN, which JSON cannot carry
	clen [1]string    // the Content-Length header's value
}

var requestPool = sync.Pool{New: func() any { return new(request) }}

// maxPointBuf and maxByteBuf bound the capacity a record's buffers carry back
// into the pool, so one huge request or result does not pin it forever.
const maxPointBuf, maxByteBuf = 1 << 16, 1 << 21

// reuse empties a pooled buffer, or drops it once it grew past max.
func reuse[T any](s []T, max int) []T {
	if cap(s) > max {
		return nil
	}
	return s[:0]
}

// jsonType is shared, so setting it allocates nothing: WriteHeader copies it.
var jsonType = []string{"application/json"}

// WriteHeader notes the status on its way out: every response in this
// package goes out through writeJSON or send, which set the header first.
func (rq *request) WriteHeader(code int) {
	rq.code, rq.wrote = code, true
	rq.ResponseWriter.WriteHeader(code)
}

// stamp closes the interval since the previous phase boundary into phase p:
// one monotonic clock read per boundary.
func (rq *request) stamp(p obs.Phase) {
	now := int64(time.Since(rq.start))
	rq.ph.NS[p] += now - rq.last
	rq.last = now
}

// fail answers with an error; the time since the last boundary is encode.
func (rq *request) fail(code int, format string, args ...any) {
	writeJSON(rq, code, errorResp{Error: fmt.Sprintf(format, args...)})
	rq.stamp(obs.PhaseEncode)
}

// send writes out as the 200 answer in one Write with its Content-Length, or
// fails the request with a 500 if an answer held ±Inf or NaN: nothing is
// written before. The time since the last boundary is encode.
func (rq *request) send() {
	if rq.inf {
		rq.fail(http.StatusInternalServerError, "answer holds a non-finite coordinate, which JSON cannot encode")
		return
	}
	rq.out = append(rq.out, '\n')
	rq.clen[0] = strconv.Itoa(len(rq.out))
	h := rq.Header()
	h["Content-Type"], h["Content-Length"] = jsonType, rq.clen[:]
	rq.WriteHeader(http.StatusOK)
	_, _ = rq.Write(rq.out) // a failed write is a client gone: nothing to answer
	rq.stamp(obs.PhaseEncode)
}

// decode reads the body into the record and parses it into v, or answers the
// request itself: 413 for a body over maxBodyBytes — MaxBytesReader is handed
// the real writer, so the server stops reading and closes the connection —
// and 400 for everything else, a stray '}' or ']' after the value included.
func (rq *request) decode(r *http.Request, v any) bool {
	_, err := rq.body.ReadFrom(http.MaxBytesReader(rq.ResponseWriter, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(rq.body.Bytes(), v)
	}
	if err == nil {
		return true
	}
	rq.stamp(obs.PhaseDecode)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		rq.fail(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	} else {
		rq.fail(http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// opHandler wraps an op endpoint with method filtering, admission control,
// and the request's record: the slot is held for the whole request, so
// MaxInflight bounds every kind of in-flight work and MaxQueue bounds the
// line behind it, and the record clocks the request from here to finish,
// which runs on every exit. A memory fault on the request's goroutine — a
// disk-backed page whose mapped file was cut or hit EIO — panics rather
// than killing the process, so finish answers it like any other panic.
func (s *Server) opHandler(route int, h func(*request, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rq := requestPool.Get().(*request)
		rq.ResponseWriter, rq.route, rq.code, rq.start = w, route, http.StatusOK, time.Now()
		defer s.finish(rq, r)
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			rq.fail(http.StatusMethodNotAllowed, "%s requires POST", r.URL.Path)
			return
		}
		err := s.gate.acquire(r.Context())
		rq.stamp(obs.PhaseAdmission)
		if errors.Is(err, errShed) {
			w.Header().Set("Retry-After", "1")
			rq.fail(http.StatusTooManyRequests, "overloaded: admission queue full")
			return
		} else if err != nil {
			rq.fail(http.StatusServiceUnavailable, "canceled while queued: %v", err)
			return
		}
		rq.admitted = true
		h(rq, r)
	}
}

// finish is opHandler's deferred end of every request, whatever its status.
// A panic under the handler (DiskStore raises page-file I/O errors and, with
// opHandler's SetPanicOnFault, mapped read faults as panics) fails that one
// request with a 500: the slot is released and the connection and the
// process keep serving; the phase it interrupted stays in
// unattributed. The record is then folded — total latency into the route's
// histogram, each phase into its counter, the status into its counter, and
// the fixed fields into the slow log when the total reaches its threshold —
// and goes back to the pool with nothing of the connection left in it.
func (s *Server) finish(rq *request, r *http.Request) {
	if p := recover(); p != nil {
		s.panics.Inc()
		log.Printf("server: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
		if !rq.wrote {
			rq.stamp(obs.PhaseUnattributed) // a boundary: the 500 is encode, what led to it is not
			rq.fail(http.StatusInternalServerError, "internal error: %v", p)
		}
		rq.code = http.StatusInternalServerError
	}
	if rq.admitted {
		s.gate.release()
	}
	total := int64(time.Since(rq.start))
	rq.ph.NS[obs.PhaseUnattributed] = total
	for _, ns := range rq.ph.NS[:obs.PhaseUnattributed] {
		rq.ph.NS[obs.PhaseUnattributed] -= ns
	}
	ro := &s.routes[rq.route]
	for p, ns := range rq.ph.NS {
		if ns != 0 {
			ro.phaseNS[p].Add(ns)
		}
	}
	sec := time.Duration(total).Seconds()
	ro.hist.Observe(sec)
	s.reqAll.Observe(sec)
	if rq.code == http.StatusOK {
		ro.ok.Inc()
	} else {
		s.reg.Counter(requestsTotal, "", obs.L("route", routes[rq.route]), obs.L("code", strconv.Itoa(rq.code))).Inc()
	}
	if s.slow.Record(obs.SlowEntry{Route: routes[rq.route], Code: rq.code, Start: rq.start, TotalNS: total, Phases: rq.ph}) {
		// A slow request is the anomaly the profile ring exists for:
		// capture while the cause is still hot.
		s.prof.trigger("slow_query")
	}
	*rq = request{pts: reuse(rq.pts, maxPointBuf), out: reuse(rq.out, maxByteBuf),
		body: *bytes.NewBuffer(reuse(rq.body.Bytes(), maxByteBuf))}
	requestPool.Put(rq)
}

// view pins the snapshot the request's reads run against, once, and points
// it at the request's clock when it can keep time (the production
// *wazi.View); doubles pass through untouched.
func (s *Server) view(rq *request) ReadView {
	if rq.view == nil {
		rq.view = s.b.View()
		if wv, ok := rq.view.(*wazi.View); ok {
			wv.SetPhases(&rq.ph)
		}
	}
	return rq.view
}

// ---------------------------------------------------------------- requests

type batchReq struct {
	Ops []workload.WireOp `json:"ops"`
}

// appendPoints appends the range or kNN answer in pts to out,
// {"count":n,"points":[{"X":…,"Y":…},…]}, its numbers as encoding/json
// writes them; at a non-finite coordinate it notes inf and stops, since the
// request will fail.
func (rq *request) appendPoints() {
	b := strconv.AppendInt(append(rq.out, `{"count":`...), int64(len(rq.pts)), 10)
	b = append(b, `,"points":[`...)
	for i, p := range rq.pts {
		if i > 0 {
			b = append(b, ',')
		}
		var fx, fy bool
		b, fx = jsonfloat.Append(append(b, `{"X":`...), p.X)
		b, fy = jsonfloat.Append(append(b, `,"Y":`...), p.Y)
		if !fx || !fy {
			rq.inf = true
			break
		}
		b = append(b, '}')
	}
	rq.out = append(b, "]}"...)
}

// ---------------------------------------------------------------- handlers

// exec runs one validated op and appends its JSON answer to out; its two
// switches, run then encode, are the only ones over wire kinds. A read's wall
// time is fanout, less what the shard scans under it clocked themselves; the
// append right after is encode, so no answer is clocked to the next op.
func (s *Server) exec(rq *request, op *workload.WireOp) {
	scanned := rq.ph.NS[obs.PhaseScan] + rq.ph.NS[obs.PhasePagestore]
	n, found, write := 0, false, false
	switch op.Op {
	case workload.WireRange:
		rq.pts = s.view(rq).RangeQueryAppend(rq.pts[:0], *op.Rect)
	case workload.WireCount:
		n = s.view(rq).RangeCount(*op.Rect)
	case workload.WirePoint:
		found = s.view(rq).PointQuery(*op.Point)
	case workload.WireKNN:
		rq.pts = s.view(rq).KNNAppend(rq.pts[:0], *op.Point, op.K)
	case workload.WireInsert:
		s.b.Insert(*op.Point)
		write = true
	case workload.WireDelete:
		found, write = s.b.Delete(*op.Point), true
	}
	if write {
		rq.view = nil // later reads must see this write
		rq.stamp(obs.PhaseWrite)
	} else {
		rq.stamp(obs.PhaseFanout)
		rq.ph.NS[obs.PhaseFanout] -= rq.ph.NS[obs.PhaseScan] + rq.ph.NS[obs.PhasePagestore] - scanned
	}
	switch op.Op {
	case workload.WireRange, workload.WireKNN:
		rq.appendPoints()
	case workload.WireCount:
		rq.out = append(strconv.AppendInt(append(rq.out, `{"count":`...), int64(n), 10), '}')
	case workload.WireInsert:
		rq.out = append(rq.out, `{"ok":true}`...)
	default: // point, delete
		rq.out = append(strconv.AppendBool(append(rq.out, `{"found":`...), found), '}')
	}
	rq.stamp(obs.PhaseEncode)
}

// handleOp serves the six single-op routes: the body is a WireOp whose kind
// is the route's — a body's own "op" never re-routes a request.
func (s *Server) handleOp(rq *request, r *http.Request) {
	if !rq.decode(r, &rq.op) {
		return
	}
	rq.op.Op = routes[rq.route]
	err := rq.op.Validate()
	rq.stamp(obs.PhaseDecode)
	if err != nil {
		rq.fail(http.StatusBadRequest, "%v", err)
		return
	}
	s.exec(rq, &rq.op)
	s.ops.Add(1)
	rq.send()
}

func validateBatch(ops []workload.WireOp) error {
	if len(ops) == 0 {
		return errors.New("batch has no ops")
	}
	for i := range ops {
		if err := ops[i].Validate(); err != nil {
			return fmt.Errorf("op %d: %v", i, err)
		}
	}
	return nil
}

// handleBatch executes a mixed multi-op request under ONE admission slot:
// client-side batching. Reads run against a lazily pinned view that is
// re-pinned after every write, so within one batch reads observe the
// batch's own earlier writes, and runs of consecutive reads share a
// snapshot. The whole batch is validated before any op executes: a
// malformed batch changes nothing. An answer that JSON cannot carry fails the
// batch there: the ops before it have run, and none after it runs.
func (s *Server) handleBatch(rq *request, r *http.Request) {
	if !rq.decode(r, &rq.batch) {
		return
	}
	ops := rq.batch.Ops
	err := validateBatch(ops)
	rq.stamp(obs.PhaseDecode)
	if err != nil {
		rq.fail(http.StatusBadRequest, "%v", err)
		return
	}
	rq.out = append(rq.out, `{"results":[`...)
	n := 0
	for ; n < len(ops) && !rq.inf; n++ {
		if n > 0 {
			rq.out = append(rq.out, ',')
		}
		s.exec(rq, &ops[n])
	}
	rq.out = append(rq.out, "]}"...)
	s.ops.Add(int64(n))
	rq.send()
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
