package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

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
// range query lands in /debug/slowlog with spans from three distinct
// layers of the fan-out: admission gate, per-shard scans, and the page
// store.
func TestSlowQueryLoggedWithSpans(t *testing.T) {
	pts := dataset.Generate(dataset.NewYork, 6000, 1)
	train := workload.Skewed(dataset.NewYork, 100, 0.0256e-2, 2)
	idx, err := wazi.NewSharded(pts, train, wazi.WithShards(4), wazi.WithoutAutoRebuild(),
		wazi.WithShardedStorage(t.TempDir(), 2), wazi.WithIndexOptions(wazi.WithLeafSize(64)))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	srv := New(Sharded(idx), Config{SlowQueryThreshold: -1})
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
		Recorded int64               `json:"recorded"`
		Traces   []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatalf("decoding /debug/slowlog: %v", err)
	}
	if slow.Recorded == 0 || len(slow.Traces) == 0 {
		t.Fatalf("slowlog empty: recorded=%d traces=%d", slow.Recorded, len(slow.Traces))
	}
	var rangeTrace *obs.TraceSnapshot
	for i := range slow.Traces {
		if slow.Traces[i].Op == "range" {
			rangeTrace = &slow.Traces[i]
			break
		}
	}
	if rangeTrace == nil {
		t.Fatalf("no range trace in slowlog: %+v", slow.Traces)
	}
	layers := map[string]bool{}
	for _, sp := range rangeTrace.Spans {
		layers[sp.Name] = true
	}
	if len(layers) < 3 {
		t.Fatalf("slow query trace has %d distinct span layers (%v), want >= 3", len(layers), layers)
	}
	for _, want := range []string{"admission", "shard_scan", "pagestore"} {
		if !layers[want] {
			t.Errorf("slow query trace missing %q span (got %v)", want, layers)
		}
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
