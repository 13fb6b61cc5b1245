package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/obs"
	"github.com/wazi-index/wazi/internal/workload"
)

// newTestBackend builds a small Sharded index for handler tests.
func newTestBackend(t *testing.T) (Backend, *wazi.Sharded) {
	t.Helper()
	pts := dataset.Generate(dataset.NewYork, 2000, 1)
	qs := workload.Skewed(dataset.NewYork, 100, 0.0256e-2, 2)
	s, err := wazi.NewSharded(pts, qs, wazi.WithShards(4), wazi.WithoutAutoRebuild())
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(s.Close)
	return Sharded(s), s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *wazi.Sharded) {
	t.Helper()
	b, idx := newTestBackend(t)
	srv := New(b, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, idx
}

const wholeUnitRect = `{"rect":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}}`

func post(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var v map[string]any
	if len(data) > 0 {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("POST %s: non-JSON response %q", path, data)
		}
	}
	return resp.StatusCode, v
}

func TestEndpoints(t *testing.T) {
	_, ts, idx := newTestServer(t, Config{})
	bounds := idx.Bounds()
	wholeRect := fmt.Sprintf(`{"MinX":%g,"MinY":%g,"MaxX":%g,"MaxY":%g}`,
		bounds.MinX, bounds.MinY, bounds.MaxX, bounds.MaxY)
	somePoint := idx.RangeQuery(bounds)[0]
	pointJSON := fmt.Sprintf(`{"X":%g,"Y":%g}`, somePoint.X, somePoint.Y)

	tests := []struct {
		name     string
		path     string
		body     string
		wantCode int
		check    func(t *testing.T, v map[string]any)
	}{
		{
			name: "range whole domain", path: "/v1/range",
			body:     fmt.Sprintf(`{"rect":%s}`, wholeRect),
			wantCode: 200,
			check: func(t *testing.T, v map[string]any) {
				if int(v["count"].(float64)) != idx.Len() {
					t.Errorf("count = %v, want %d", v["count"], idx.Len())
				}
			},
		},
		{
			name: "count whole domain", path: "/v1/count",
			body:     fmt.Sprintf(`{"rect":%s}`, wholeRect),
			wantCode: 200,
			check: func(t *testing.T, v map[string]any) {
				if int(v["count"].(float64)) != idx.Len() {
					t.Errorf("count = %v, want %d", v["count"], idx.Len())
				}
			},
		},
		{
			name: "point present", path: "/v1/point",
			body:     fmt.Sprintf(`{"point":%s}`, pointJSON),
			wantCode: 200,
			check: func(t *testing.T, v map[string]any) {
				if v["found"] != true {
					t.Errorf("found = %v, want true", v["found"])
				}
			},
		},
		{
			name: "knn", path: "/v1/knn",
			body:     fmt.Sprintf(`{"point":%s,"k":5}`, pointJSON),
			wantCode: 200,
			check: func(t *testing.T, v map[string]any) {
				if int(v["count"].(float64)) != 5 {
					t.Errorf("count = %v, want 5", v["count"])
				}
			},
		},
		{
			name: "insert then delete", path: "/v1/insert",
			body:     `{"point":{"X":0.123,"Y":0.987}}`,
			wantCode: 200,
			check: func(t *testing.T, v map[string]any) {
				if v["ok"] != true {
					t.Errorf("ok = %v", v["ok"])
				}
				if !idx.PointQuery(wazi.Point{X: 0.123, Y: 0.987}) {
					t.Error("inserted point not visible in index")
				}
			},
		},
		{
			name: "delete inserted", path: "/v1/delete",
			body:     `{"point":{"X":0.123,"Y":0.987}}`,
			wantCode: 200,
			check: func(t *testing.T, v map[string]any) {
				if v["found"] != true {
					t.Errorf("found = %v, want true", v["found"])
				}
			},
		},
		{
			name: "malformed JSON", path: "/v1/range",
			body: `{"rect":`, wantCode: 400,
		},
		{
			name: "trailing garbage", path: "/v1/range",
			body: fmt.Sprintf(`{"rect":%s} extra`, wholeRect), wantCode: 400,
		},
		{
			name: "trailing brace", path: "/v1/point",
			body: `{"point":{"X":1,"Y":2}}}`, wantCode: 400,
		},
		{
			name: "trailing brackets", path: "/v1/range",
			body: fmt.Sprintf(`{"rect":%s}]]]`, wholeRect), wantCode: 400,
		},
		{
			name: "batch trailing brace", path: "/v1/batch",
			body: `{"ops":[{"op":"point","point":{"X":1,"Y":2}}]}}`, wantCode: 400,
		},
		{
			name: "batch trailing bracket", path: "/v1/batch",
			body: `{"ops":[{"op":"point","point":{"X":1,"Y":2}}]}]`, wantCode: 400,
		},
		{
			name: "missing rect", path: "/v1/range",
			body: `{}`, wantCode: 400,
		},
		{
			name: "inverted rect", path: "/v1/range",
			body: `{"rect":{"MinX":0.9,"MinY":0.1,"MaxX":0.1,"MaxY":0.9}}`, wantCode: 400,
		},
		{
			name: "non-finite rect", path: "/v1/count",
			body: `{"rect":{"MinX":-1e999,"MinY":0,"MaxX":1,"MaxY":1}}`, wantCode: 400,
		},
		{
			name: "knn k zero", path: "/v1/knn",
			body: fmt.Sprintf(`{"point":%s,"k":0}`, pointJSON), wantCode: 400,
		},
		{
			name: "knn k negative", path: "/v1/knn",
			body: fmt.Sprintf(`{"point":%s,"k":-2}`, pointJSON), wantCode: 400,
		},
		{
			name: "knn k at the bound", path: "/v1/knn",
			body:     fmt.Sprintf(`{"point":%s,"k":%d}`, pointJSON, workload.MaxWireK),
			wantCode: 200,
		},
		{
			name: "knn k over the bound", path: "/v1/knn",
			body: fmt.Sprintf(`{"point":%s,"k":%d}`, pointJSON, workload.MaxWireK+1), wantCode: 400,
		},
		{
			name: "insert missing point", path: "/v1/insert",
			body: `{}`, wantCode: 400,
		},
		{
			name: "batch mixed", path: "/v1/batch",
			body:     fmt.Sprintf(`{"ops":[{"op":"count","rect":%s},{"op":"insert","point":{"X":0.111,"Y":0.222}},{"op":"point","point":{"X":0.111,"Y":0.222}},{"op":"delete","point":{"X":0.111,"Y":0.222}},{"op":"point","point":{"X":0.111,"Y":0.222}}]}`, wholeRect),
			wantCode: 200,
			check: func(t *testing.T, v map[string]any) {
				results := v["results"].([]any)
				if len(results) != 5 {
					t.Fatalf("got %d results, want 5", len(results))
				}
				// The point op follows the insert in the same batch, so it
				// must observe it (reads re-pin their view after writes).
				if results[2].(map[string]any)["found"] != true {
					t.Errorf("batch read did not observe earlier batch write: %v", results[2])
				}
				if results[3].(map[string]any)["found"] != true {
					t.Errorf("batch delete missed the batch insert: %v", results[3])
				}
				if results[4].(map[string]any)["found"] != false {
					t.Errorf("batch read did not observe earlier batch delete: %v", results[4])
				}
			},
		},
		{
			name: "batch empty", path: "/v1/batch",
			body: `{"ops":[]}`, wantCode: 400,
		},
		{
			name: "batch bad op kind", path: "/v1/batch",
			body: `{"ops":[{"op":"scan"}]}`, wantCode: 400,
		},
		{
			name: "batch invalid op operand", path: "/v1/batch",
			body: `{"ops":[{"op":"knn","point":{"X":0.5,"Y":0.5},"k":0}]}`, wantCode: 400,
		},
		{
			name: "batch knn k over the bound", path: "/v1/batch",
			body: fmt.Sprintf(`{"ops":[{"op":"knn","point":{"X":0.5,"Y":0.5},"k":%d}]}`, workload.MaxWireK+1), wantCode: 400,
		},
		{
			name: "batch knn", path: "/v1/batch",
			body:     `{"ops":[{"op":"knn","point":{"X":0.5,"Y":0.5},"k":3},{"op":"knn","point":{"X":0.1,"Y":0.9},"k":7}]}`,
			wantCode: 200,
			check: func(t *testing.T, v map[string]any) {
				// Both answers share one scratch buffer while they are
				// computed; each must come back whole and its own.
				for i, want := range []wazi.Point{{X: 0.5, Y: 0.5}, {X: 0.1, Y: 0.9}} {
					res := v["results"].([]any)[i].(map[string]any)
					k := []int{3, 7}[i]
					pts := res["points"].([]any)
					if int(res["count"].(float64)) != k || len(pts) != k {
						t.Fatalf("result %d: count %v, %d points, want %d", i, res["count"], len(pts), k)
					}
					first := pts[0].(map[string]any)
					if nn := idx.KNN(want, 1)[0]; first["X"] != nn.X || first["Y"] != nn.Y {
						t.Errorf("result %d leads with %v, nearest is %v", i, first, nn)
					}
				}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, v := post(t, ts, tt.path, tt.body)
			if code != tt.wantCode {
				t.Fatalf("status = %d, want %d (body %v)", code, tt.wantCode, v)
			}
			if code != 200 {
				if _, ok := v["error"]; !ok {
					t.Errorf("error response lacks an error message: %v", v)
				}
				return
			}
			if tt.check != nil {
				tt.check(t, v)
			}
		})
	}
}

func TestMethodFiltering(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/range")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/range = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/statsz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /statsz = %d, want 405", resp.StatusCode)
	}
}

// TestRouteDecidesTheOp: a single-op body is a WireOp, but its kind is the
// route's — an "op" in the body never re-routes the request, and operands
// the route does not use are ignored as they always were.
func TestRouteDecidesTheOp(t *testing.T) {
	_, ts, idx := newTestServer(t, Config{})
	p := wazi.Point{X: 0.321, Y: 0.654}
	for _, tt := range []struct {
		name, path, body string
		check            func(t *testing.T, v map[string]any)
	}{
		{"insert with a delete op inserts", "/v1/insert", `{"op":"delete","point":{"X":0.321,"Y":0.654}}`,
			func(t *testing.T, v map[string]any) {
				if v["ok"] != true || !idx.PointQuery(p) {
					t.Errorf("answer %v, point indexed = %v; want ok and indexed", v, idx.PointQuery(p))
				}
			}},
		{"range with an extra point", "/v1/range", `{"rect":{"MinX":0.3,"MinY":0.6,"MaxX":0.4,"MaxY":0.7},"point":{"X":9,"Y":9}}`,
			func(t *testing.T, v map[string]any) {
				want := idx.RangeCount(wazi.Rect{MinX: 0.3, MinY: 0.6, MaxX: 0.4, MaxY: 0.7})
				if got := int(v["count"].(float64)); got != want || want == 0 {
					t.Errorf("count = %d, want %d (> 0)", got, want)
				}
			}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			code, v := post(t, ts, tt.path, tt.body)
			if code != http.StatusOK {
				t.Fatalf("status = %d (body %v)", code, v)
			}
			tt.check(t, v)
		})
	}
}

// TestOversizedBodyIs413 sends a body one byte over the limit: the answer is
// 413, the server closes that connection instead of reading on, and the next
// request is served.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(strings.Repeat(" ", maxBodyBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch answered %d, want 413", resp.StatusCode)
	}
	if !resp.Close {
		t.Error("the server was not told to close the connection of an oversized body")
	}
	if code, v := post(t, ts, "/v1/count", wholeUnitRect); code != http.StatusOK {
		t.Fatalf("request after the 413 answered %d (%v), want 200", code, v)
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	_, ts, idx := newTestServer(t, Config{})
	// Serve a little traffic so the counters move.
	b := idx.Bounds()
	body := fmt.Sprintf(`{"rect":{"MinX":%g,"MinY":%g,"MaxX":%g,"MaxY":%g}}`, b.MinX, b.MinY, b.MaxX, b.MaxY)
	for i := 0; i < 3; i++ {
		if code, _ := post(t, ts, "/v1/count", body); code != 200 {
			t.Fatalf("warm-up count returned %d", code)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthResp
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Points != idx.Len() {
		t.Errorf("healthz = %+v, want ok with %d points", health, idx.Len())
	}

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats statszResp
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	resp.Body.Close()
	if stats.Shards != idx.NumShards() {
		t.Errorf("statsz shards = %d, want %d", stats.Shards, idx.NumShards())
	}
	if stats.OpsServed < 3 {
		t.Errorf("statsz ops_served = %d, want >= 3", stats.OpsServed)
	}
	if stats.IndexStats.RangeQueries < 3 {
		t.Errorf("statsz index range queries = %d, want >= 3", stats.IndexStats.RangeQueries)
	}
	if len(stats.ShardStates) != idx.NumShards() {
		t.Errorf("statsz drift state covers %d shards, want %d", len(stats.ShardStates), idx.NumShards())
	}
	// Migration state of a fresh index: epoch 0, nothing in flight, and the
	// per-shard load counters must have seen the warm-up traffic (the whole-
	// bounds count targets every non-empty shard).
	if stats.PlanEpoch != 0 || stats.Migrating || stats.Repartitions != 0 {
		t.Errorf("fresh index migration state = epoch %d migrating %v repartitions %d, want 0/false/0",
			stats.PlanEpoch, stats.Migrating, stats.Repartitions)
	}
	var totalLoad int64
	for _, ss := range stats.ShardStates {
		totalLoad += ss.Load
	}
	if totalLoad < 3 {
		t.Errorf("statsz per-shard load sums to %d, want >= 3 after 3 fan-out counts", totalLoad)
	}
}

// blockingBackend wraps a Backend so reads block until released — the
// saturated-index stand-in for admission tests. It counts what the gate is
// meant to bound: views pinned, and reads inside the backend at once.
type blockingBackend struct {
	Backend
	gate   chan struct{}
	views  atomic.Int64  // View calls
	inside atomic.Int64  // reads in RangeCount now
	peak   atomic.Int64  // most reads ever in RangeCount at once
	faulty atomic.Bool   // RangeCount panics while set, as DiskStore does on EIO
	delay  time.Duration // RangeCount sleeps this long before answering
}

type blockingView struct {
	ReadView
	b *blockingBackend
}

func (b *blockingBackend) View() ReadView {
	b.views.Add(1)
	return &blockingView{ReadView: b.Backend.View(), b: b}
}

func (v *blockingView) RangeCount(r wazi.Rect) int {
	n := v.b.inside.Add(1)
	defer v.b.inside.Add(-1)
	for {
		if p := v.b.peak.Load(); n <= p || v.b.peak.CompareAndSwap(p, n) {
			break
		}
	}
	if v.b.faulty.Load() {
		panic("blockingBackend: injected page read fault")
	}
	<-v.b.gate
	time.Sleep(v.b.delay)
	return v.ReadView.RangeCount(r)
}

// TestAdmissionShedsWith429 saturates a 1-slot, 0-queue gate and asserts
// the next request is shed with 429 + Retry-After while the index stays
// untouched, then confirms the server recovers once the slot frees up.
func TestAdmissionShedsWith429(t *testing.T) {
	b, _ := newTestBackend(t)
	blocked := &blockingBackend{Backend: b, gate: make(chan struct{})}
	srv := New(blocked, Config{MaxInflight: 1, NoQueue: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"rect":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}}`
	firstDone := make(chan int)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/count", "application/json", strings.NewReader(body))
		if err != nil {
			firstDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()

	// Wait until the first request holds the admission slot (it is blocked
	// inside the backend read).
	waitFor(t, func() bool { return srv.gate.inflight.Load() == 1 })

	resp, err := http.Post(ts.URL+"/v1/count", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated gate returned %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}
	if got := srv.gate.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	close(blocked.gate) // release the stuck read
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first request finished with %d, want 200", code)
	}
	if code, _ := post(t, ts, "/v1/count", body); code != http.StatusOK {
		t.Errorf("gate did not recover after release: %d", code)
	}
}

// TestAdmissionQueueThenServe checks the middle regime: requests beyond
// MaxInflight but within MaxQueue wait instead of shedding, and complete
// once capacity frees.
func TestAdmissionQueueThenServe(t *testing.T) {
	b, _ := newTestBackend(t)
	blocked := &blockingBackend{Backend: b, gate: make(chan struct{})}
	srv := New(blocked, Config{MaxInflight: 1, MaxQueue: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"rect":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}}`
	const n = 4
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/count", "application/json", strings.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// One holds the slot, the rest are queued; nothing sheds.
	waitFor(t, func() bool { return srv.gate.inflight.Load() == 1 && srv.gate.queued.Load() == n-1 })
	if got := srv.gate.shed.Load(); got != 0 {
		t.Fatalf("requests within the queue limit were shed: %d", got)
	}
	close(blocked.gate)
	wg.Wait()
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("queued request finished with %d, want 200", code)
		}
	}
}

// TestGateAloneBoundsBackendReads sends 8 concurrent counts through a
// 2-slot gate: reads run on the handler goroutines, so the gate is the only
// thing between the requests and the index, and the backend must never see
// more than 2 of them at once. All 8 are served.
func TestGateAloneBoundsBackendReads(t *testing.T) {
	b, _ := newTestBackend(t)
	blocked := &blockingBackend{Backend: b, gate: make(chan struct{})}
	srv := New(blocked, Config{MaxInflight: 2, MaxQueue: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/count", "application/json", strings.NewReader(wholeUnitRect))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Two hold the slots inside the backend, six wait at the gate.
	waitFor(t, func() bool { return blocked.inside.Load() == 2 && srv.gate.queued.Load() == n-2 })
	close(blocked.gate)
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("request finished with %d, want 200", code)
		}
	}
	if peak := blocked.peak.Load(); peak != 2 {
		t.Errorf("backend saw %d reads at once, want exactly MaxInflight = 2", peak)
	}
	if views := blocked.views.Load(); views != n {
		t.Errorf("backend pinned %d views for %d reads", views, n)
	}
}

// TestCancelledWhileQueuedNeverReads cancels a request that is waiting at
// the gate: it answers 503 and the index is never asked for a view on its
// behalf.
func TestCancelledWhileQueuedNeverReads(t *testing.T) {
	b, _ := newTestBackend(t)
	blocked := &blockingBackend{Backend: b, gate: make(chan struct{})}
	srv := New(blocked, Config{MaxInflight: 1, MaxQueue: 8})

	serve := func(ctx context.Context) <-chan *httptest.ResponseRecorder {
		done := make(chan *httptest.ResponseRecorder, 1)
		req := httptest.NewRequest(http.MethodPost, "/v1/count", strings.NewReader(wholeUnitRect))
		go func() {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req.WithContext(ctx))
			done <- rec
		}()
		return done
	}
	first := serve(context.Background())
	waitFor(t, func() bool { return blocked.inside.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	second := serve(ctx)
	waitFor(t, func() bool { return srv.gate.queued.Load() == 1 })
	cancel()
	if rec := <-second; rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request cancelled while queued answered %d, want 503", rec.Code)
	}
	if views := blocked.views.Load(); views != 1 {
		t.Errorf("backend pinned %d views; the cancelled request must not reach it", views)
	}
	close(blocked.gate)
	if rec := <-first; rec.Code != http.StatusOK {
		t.Fatalf("first request finished with %d, want 200", rec.Code)
	}
	if q, in := srv.gate.queued.Load(), srv.gate.inflight.Load(); q != 0 || in != 0 {
		t.Errorf("gate left with queued=%d inflight=%d", q, in)
	}
}

// TestSlowLogHoldsCancelledQueuedRequest: the slow log takes any request at
// or over the threshold, whatever its status. One that waited 20 ms at the
// gate and was then cancelled is the entry an operator needs, and nearly all
// of its time is admission.
func TestSlowLogHoldsCancelledQueuedRequest(t *testing.T) {
	b, _ := newTestBackend(t)
	blocked := &blockingBackend{Backend: b, gate: make(chan struct{})}
	srv := New(blocked, Config{MaxInflight: 1, MaxQueue: 8, SlowQueryThreshold: 10 * time.Millisecond})

	serve := func(ctx context.Context) <-chan int {
		done := make(chan int, 1)
		req := httptest.NewRequest(http.MethodPost, "/v1/count", strings.NewReader(wholeUnitRect))
		go func() {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req.WithContext(ctx))
			done <- rec.Code
		}()
		return done
	}
	first := serve(context.Background())
	waitFor(t, func() bool { return blocked.inside.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	second := serve(ctx)
	waitFor(t, func() bool { return srv.gate.queued.Load() == 1 })
	time.Sleep(20 * time.Millisecond)
	cancel()
	if code := <-second; code != http.StatusServiceUnavailable {
		t.Fatalf("request cancelled while queued answered %d, want 503", code)
	}
	entries := srv.slow.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("slow log holds %d entries, want the cancelled request alone: %+v", len(entries), entries)
	}
	e := entries[0]
	if e.Route != "count" || e.Code != http.StatusServiceUnavailable {
		t.Errorf("entry is %s/%d, want count/503", e.Route, e.Code)
	}
	if adm := e.Phases.NS[obs.PhaseAdmission]; adm < int64(20*time.Millisecond) || adm*10 < e.TotalNS*9 {
		t.Errorf("admission = %d ns of %d total, want >= 20 ms and >= 90 %%", adm, e.TotalNS)
	}
	close(blocked.gate)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request finished with %d, want 200", code)
	}
}

// TestHandlerPanicContained makes the backend read panic the way DiskStore
// does on a page-file I/O error: the request answers 500 in the JSON error
// shape, the admission slot comes back, the panic is counted, and the next
// request on the same 1-slot gate (and the same connection) is served.
func TestHandlerPanicContained(t *testing.T) {
	log.SetOutput(io.Discard) // the recovered panic's stack trace
	defer log.SetOutput(os.Stderr)
	b, _ := newTestBackend(t)
	blocked := &blockingBackend{Backend: b, gate: make(chan struct{})}
	close(blocked.gate)
	blocked.faulty.Store(true)
	srv := New(blocked, Config{MaxInflight: 1, NoQueue: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, v := post(t, ts, "/v1/count", wholeUnitRect)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking read answered %d (%v), want 500", code, v)
	}
	if msg, _ := v["error"].(string); !strings.Contains(msg, "injected page read fault") {
		t.Errorf("500 body %v does not carry the error shape", v)
	}
	if in := srv.gate.inflight.Load(); in != 0 {
		t.Fatalf("inflight = %d after a panicking request, want 0", in)
	}
	if got := srv.panics.Value(); got != 1 {
		t.Errorf("wazi_http_panics_total = %d, want 1", got)
	}
	byStatus := srv.reg.Counter("wazi_http_requests_total", "", obs.L("route", "count"), obs.L("code", "500"))
	if got := byStatus.Value(); got != 1 {
		t.Errorf(`wazi_http_requests_total{route="count",code="500"} = %d, want 1`, got)
	}

	blocked.faulty.Store(false)
	if code, v := post(t, ts, "/v1/count", wholeUnitRect); code != http.StatusOK {
		t.Fatalf("request after the panic answered %d (%v), want 200", code, v)
	}
}

// TestBatchEndpointResultsMatchDirectQueries cross-checks /v1/batch against
// the index: a batch of counts must agree with RangeCount.
func TestBatchEndpointResultsMatchDirectQueries(t *testing.T) {
	_, ts, idx := newTestServer(t, Config{})
	qs := workload.Skewed(dataset.NewYork, 20, 0.0256e-2, 9)
	ops := make([]workload.WireOp, len(qs))
	for i := range qs {
		q := qs[i]
		ops[i] = workload.WireOp{Op: workload.WireCount, Rect: &q}
	}
	body, _ := json.Marshal(map[string]any{"ops": ops})
	code, v := post(t, ts, "/v1/batch", string(body))
	if code != 200 {
		t.Fatalf("batch returned %d: %v", code, v)
	}
	results := v["results"].([]any)
	for i, q := range qs {
		want := idx.RangeCount(q)
		got := int(results[i].(map[string]any)["count"].(float64))
		if got != want {
			t.Errorf("batch count %d = %d, direct RangeCount = %d", i, got, want)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}
