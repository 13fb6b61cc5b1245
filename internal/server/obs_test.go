package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/obs"
	"github.com/wazi-index/wazi/internal/workload"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, data
}

// TestMetricsEndpointParses drives traffic through every op route, then
// asserts /metrics is valid Prometheus text exposition containing the core
// families: per-route latency histograms, cache counters, GC pause
// histogram, shard-layer instruments, and per-status request counts.
func TestMetricsEndpointParses(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	post(t, ts, "/v1/count", `{"rect":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}}`)
	post(t, ts, "/v1/range", `{"rect":{"MinX":0.4,"MinY":0.4,"MaxX":0.6,"MaxY":0.6}}`)
	post(t, ts, "/v1/point", `{"point":{"X":0.5,"Y":0.5}}`)
	post(t, ts, "/v1/knn", `{"point":{"X":0.5,"Y":0.5},"k":3}`)
	post(t, ts, "/v1/insert", `{"point":{"X":0.11,"Y":0.17}}`)

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	fams, err := obs.ParsePromText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, body)
	}
	byName := map[string]*obs.PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"wazi_http_request_seconds",
		"wazi_http_requests_total",
		"wazi_http_inflight",
		"wazi_ops_served_total",
		"wazi_cache_hits_total",
		"wazi_go_gc_pause_seconds",
		"wazi_go_heap_alloc_bytes",
		"wazi_index_points",
		"wazi_fanout_width_shards",
		"wazi_shard_scan_seconds",
		"wazi_http_panics_total",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("/metrics missing family %q", want)
		}
	}
	// The route histogram must have counted the count request.
	var countObs float64
	for _, s := range byName["wazi_http_request_seconds"].Samples {
		if strings.HasSuffix(s.Name, "_count") && s.Labels["route"] == "count" {
			countObs = s.Value
		}
	}
	if countObs < 1 {
		t.Errorf("wazi_http_request_seconds{route=count} _count = %v, want >= 1", countObs)
	}
	// POST to /metrics is rejected.
	if code, _ := post(t, ts, "/metrics", "{}"); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d, want 405", code)
	}
}

// TestStatszObsSnapshot asserts /statsz embeds the structured registry
// snapshot, including histogram quantiles, under the "obs" key.
func TestStatszObsSnapshot(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	post(t, ts, "/v1/count", `{"rect":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}}`)

	code, body := get(t, ts, "/statsz")
	if code != http.StatusOK {
		t.Fatalf("/statsz status = %d", code)
	}
	var resp struct {
		Obs obs.Snapshot `json:"obs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding /statsz: %v", err)
	}
	if len(resp.Obs.Metrics) == 0 {
		t.Fatal("/statsz obs snapshot is empty")
	}
	m := resp.Obs.Get("wazi_ops_served_total")
	if m == nil || m.Value < 1 {
		t.Fatalf("obs snapshot wazi_ops_served_total = %+v, want >= 1", m)
	}
	h := resp.Obs.Get("wazi_http_request_seconds")
	if h == nil || h.Histogram == nil {
		t.Fatal("obs snapshot lacks the request histogram")
	}
}

// TestMetricsStatszConcurrentWithWrites hammers /metrics and /statsz while
// writes mutate the index; run under -race this proves the whole export path
// (registry walk, runtime sampler, cache-stat funcs) is data-race free
// against concurrent index mutation.
func TestMetricsStatszConcurrentWithWrites(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				x := float64(seed*iters+i) / float64(2*iters)
				post(t, ts, "/v1/insert", fmt.Sprintf(`{"point":{"X":%g,"Y":%g}}`, x, 1-x))
				post(t, ts, "/v1/count", `{"rect":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}}`)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if code, _ := get(t, ts, "/metrics"); code != http.StatusOK {
					t.Errorf("/metrics status %d under load", code)
					return
				}
				if code, _ := get(t, ts, "/statsz"); code != http.StatusOK {
					t.Errorf("/statsz status %d under load", code)
					return
				}
			}
		}()
	}
	wg.Wait()

	_, body := get(t, ts, "/metrics")
	if _, err := obs.ParsePromText(strings.NewReader(string(body))); err != nil {
		t.Fatalf("/metrics unparsable after concurrent load: %v", err)
	}
}

// TestSlowQueryLoggedWithSpans serves a disk-backed index with a tiny block
// cache, records every request (negative threshold), and asserts a wide
// range query lands in /debug/slowlog with time in three distinct layers of
// the read path: admission gate, shard scans, and the page store.
func TestSlowQueryLoggedWithSpans(t *testing.T) {
	srv, _ := newDiskServer(t, 2, Config{SlowQueryThreshold: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, resp := post(t, ts, "/v1/range", `{"rect":{"MinX":-180,"MinY":-90,"MaxX":180,"MaxY":90}}`)
	if code != http.StatusOK {
		t.Fatalf("wide range status = %d: %v", code, resp)
	}

	slowCode, body := get(t, ts, "/debug/slowlog")
	if slowCode != http.StatusOK {
		t.Fatalf("/debug/slowlog status = %d", slowCode)
	}
	var slow struct {
		Recorded int64 `json:"recorded"`
		Entries  []struct {
			Route  string           `json:"route"`
			Code   int              `json:"code"`
			Phases map[string]int64 `json:"phases"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatalf("decoding /debug/slowlog: %v", err)
	}
	if slow.Recorded != 1 || len(slow.Entries) != 1 {
		t.Fatalf("slowlog: recorded=%d entries=%d, want the one range request", slow.Recorded, len(slow.Entries))
	}
	e := slow.Entries[0]
	if e.Route != "range" || e.Code != http.StatusOK {
		t.Fatalf("slowlog entry is %s/%d, want range/200", e.Route, e.Code)
	}
	for _, want := range []string{"admission_ns", "scan_ns", "pagestore_ns", "scans", "results", "page_reads"} {
		if e.Phases[want] <= 0 {
			t.Errorf("slow range entry has %s = %d, want > 0 (got %v)", want, e.Phases[want], e.Phases)
		}
	}
}

// newDiskServer serves a 4-shard index on page files whose block cache holds
// cachePages pages per shard.
func newDiskServer(t *testing.T, cachePages int, cfg Config) (*Server, *wazi.Sharded) {
	t.Helper()
	pts := dataset.Generate(dataset.NewYork, 6000, 1)
	train := workload.Skewed(dataset.NewYork, 100, 0.0256e-2, 2)
	idx, err := wazi.NewSharded(pts, train, wazi.WithShards(4), wazi.WithoutAutoRebuild(),
		wazi.WithShardedStorage(t.TempDir(), cachePages), wazi.WithIndexOptions(wazi.WithLeafSize(64)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	return New(Sharded(idx), cfg), idx
}

// serveOnce runs one request through the handler tree on the caller's
// goroutine, so the request's record is folded before it returns.
func serveOnce(srv *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestPhasesSumToWall: whatever the route and the status, the phases of a
// request's record sum to its wall time to the nanosecond, and each kind of
// work lands in the phase that names it.
func TestPhasesSumToWall(t *testing.T) {
	srv, _ := newDiskServer(t, 2, Config{SlowQueryThreshold: -1})
	const rect = `{"MinX":-180,"MinY":-90,"MaxX":180,"MaxY":90}`
	const point = `{"X":-73.9,"Y":40.7}`
	for _, tt := range []struct {
		path, body string
		code       int
		check      func(t *testing.T, ph obs.Phases)
	}{
		{"/v1/range", `{"rect":` + rect + `}`, 200, func(t *testing.T, ph obs.Phases) {
			if ph.NS[obs.PhaseScan] <= 0 || ph.NS[obs.PhasePagestore] <= 0 || ph.NS[obs.PhaseEncode] <= 0 || ph.NS[obs.PhaseWrite] != 0 {
				t.Errorf("range phases %+v: want scan, pagestore, encode > 0 and write = 0", ph)
			}
		}},
		{"/v1/count", `{"rect":` + rect + `}`, 200, nil},
		{"/v1/point", `{"point":` + point + `}`, 200, nil},
		{"/v1/knn", `{"point":` + point + `,"k":5}`, 200, nil},
		{"/v1/insert", `{"point":` + point + `}`, 200, func(t *testing.T, ph obs.Phases) {
			if ph.NS[obs.PhaseWrite] <= 0 || ph.NS[obs.PhaseScan] != 0 || ph.NS[obs.PhaseFanout] != 0 || ph.Scans != 0 {
				t.Errorf("insert phases %+v: want write > 0 and no read phase", ph)
			}
		}},
		{"/v1/delete", `{"point":` + point + `}`, 200, nil},
		{"/v1/batch", `{"ops":[{"op":"count","rect":` + rect + `},{"op":"insert","point":` + point + `},{"op":"knn","point":` + point + `,"k":3}]}`, 200,
			func(t *testing.T, ph obs.Phases) {
				if ph.NS[obs.PhaseWrite] <= 0 || ph.NS[obs.PhaseScan] <= 0 || ph.Scans < 5 {
					t.Errorf("mixed batch phases %+v: want write and scan > 0 and >= 5 scans", ph)
				}
			}},
		// Each answer is appended, and clocked as encode, right after its op:
		// two full-domain ranges' points are encoded between the scans.
		{"/v1/batch", `{"ops":[{"op":"range","rect":` + rect + `},{"op":"range","rect":` + rect + `},{"op":"count","rect":` + rect + `}]}`, 200,
			func(t *testing.T, ph obs.Phases) {
				if ph.NS[obs.PhaseEncode] <= 0 || ph.NS[obs.PhaseScan] <= 0 || ph.NS[obs.PhaseFanout] <= 0 || ph.NS[obs.PhaseWrite] != 0 || ph.Results < 2*6000 {
					t.Errorf("read batch phases %+v: want encode, scan, fanout > 0, write = 0 and both ranges' results", ph)
				}
			}},
		{"/v1/range", `{"rect":`, 400, func(t *testing.T, ph obs.Phases) {
			if ph.NS[obs.PhaseDecode] <= 0 || ph.NS[obs.PhaseFanout] != 0 {
				t.Errorf("malformed body phases %+v: want decode > 0 and nothing executed", ph)
			}
		}},
	} {
		t.Run(strings.TrimPrefix(tt.path, "/v1/")+fmt.Sprint(tt.code), func(t *testing.T) {
			if code := serveOnce(srv, tt.path, tt.body).Code; code != tt.code {
				t.Fatalf("status = %d, want %d", code, tt.code)
			}
			e := srv.slow.Snapshot()[0]
			if e.Route != strings.TrimPrefix(tt.path, "/v1/") || e.Code != tt.code {
				t.Fatalf("newest slow-log entry is %s/%d", e.Route, e.Code)
			}
			var sum int64
			for p, ns := range e.Phases.NS {
				if ns < 0 {
					t.Errorf("phase %v = %d ns, want >= 0", obs.Phase(p), ns)
				}
				sum += ns
			}
			if sum != e.TotalNS || e.TotalNS <= 0 {
				t.Errorf("phases sum to %d ns, total is %d ns: %+v", sum, e.TotalNS, e.Phases)
			}
			if tt.check != nil {
				tt.check(t, e.Phases)
			}
		})
	}

	// Time inside the read call that no shard scan clocked is fanout — all of
	// it, on a double that cannot keep time.
	b, _ := newTestBackend(t)
	slow := &blockingBackend{Backend: b, gate: make(chan struct{}), delay: 20 * time.Millisecond}
	close(slow.gate)
	srv = New(slow, Config{SlowQueryThreshold: -1})
	if code := serveOnce(srv, "/v1/count", wholeUnitRect).Code; code != 200 {
		t.Fatalf("count on the sleeping backend answered %d", code)
	}
	if e := srv.slow.Snapshot()[0]; e.Phases.NS[obs.PhaseFanout] < int64(20*time.Millisecond) {
		t.Errorf("fanout = %d ns around a 20 ms read", e.Phases.NS[obs.PhaseFanout])
	}
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestHandlerAllocsPerRequest ratchets the heap allocations of one request
// through the handler tree, JSON decode and encode included, on a warm
// disk-backed index. The range, point and kNN bodies lie inside the data, so
// the range and kNN answers carry points. The ceilings are what this tree
// measures; with json.NewDecoder and a marshalled answer the same bodies
// took 14/14/13/14/16. Range and kNN pay one more than count and point for
// the Content-Length string (strconv.Itoa interns only 0–99). A change that
// lowers a count lowers its ceiling.
func TestHandlerAllocsPerRequest(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops a quarter of its Puts under the race detector: pooled records miss")
			}
		}
	}
	srv, _ := newDiskServer(t, 4096, Config{})
	h := srv.Handler()
	for _, tt := range []struct {
		path, body string
		max        float64
	}{
		{"/v1/range", `{"rect":{"MinX":0.47,"MinY":0.53,"MaxX":0.51,"MaxY":0.57}}`, 10},
		{"/v1/count", `{"rect":{"MinX":0.47,"MinY":0.53,"MaxX":0.51,"MaxY":0.57}}`, 9},
		{"/v1/point", `{"point":{"X":0.49,"Y":0.55}}`, 9},
		{"/v1/knn", `{"point":{"X":0.49,"Y":0.55},"k":8}`, 10},
		{"/v1/insert", `{"point":{"X":-73.9,"Y":40.7}}`, 12},
	} {
		rec := serveOnce(srv, tt.path, tt.body)
		var answer struct{ Count int }
		if err := json.Unmarshal(rec.Body.Bytes(), &answer); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, body %q", tt.path, rec.Code, rec.Body)
		}
		if (tt.path == "/v1/range" || tt.path == "/v1/knn") && answer.Count == 0 {
			t.Fatalf("%s: empty answer %q; the ratchet must encode points", tt.path, rec.Body)
		}
		body := strings.NewReader(tt.body)
		req := httptest.NewRequest(http.MethodPost, tt.path, body)
		w := &discardWriter{h: http.Header{}}
		got := testing.AllocsPerRun(200, func() {
			body.Reset(tt.body)
			h.ServeHTTP(w, req)
		})
		if got > tt.max {
			t.Errorf("%s: %.0f allocs per request, ceiling %.0f", tt.path, got, tt.max)
		}
		t.Logf("%s: %.0f allocs per request", tt.path, got)
	}
}

// TestPprofGated asserts /debug/pprof/ is absent by default and mounted
// under Config.Pprof.
func TestPprofGated(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	if code, _ := get(t, ts, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without Pprof = %d, want 404", code)
	}
	b, _ := newTestBackend(t)
	srv := New(b, Config{Pprof: true})
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	if code, _ := get(t, ts2, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ with Pprof = %d, want 200", code)
	}
}

// TestStatsAndCountersLines sanity-checks the one-line summaries waziserve
// logs: both must mention the ops served and parse-friendly key=value pairs.
func TestStatsAndCountersLines(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})
	post(t, ts, "/v1/count", `{"rect":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}}`)

	line := srv.StatsLine()
	for _, key := range []string{"ops=", "qps=", "p95=", "cache_hit=", "heap=", "goroutines="} {
		if !strings.Contains(line, key) {
			t.Errorf("StatsLine %q missing %q", line, key)
		}
	}
	counters := srv.CountersLine()
	for _, key := range []string{"ops=", "admitted=", "shed=", "cache_hits=", "slow_queries="} {
		if !strings.Contains(counters, key) {
			t.Errorf("CountersLine %q missing %q", counters, key)
		}
	}
	if !strings.Contains(counters, "ops=1") {
		t.Errorf("CountersLine %q should report ops=1", counters)
	}
}
