package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
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
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, idx
}

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
			body:     fmt.Sprintf(`{"ops":[{"op":"count","rect":%s},{"op":"insert","point":{"X":0.111,"Y":0.222}},{"op":"point","point":{"X":0.111,"Y":0.222}},{"op":"delete","point":{"X":0.111,"Y":0.222}}]}`, wholeRect),
			wantCode: 200,
			check: func(t *testing.T, v map[string]any) {
				results := v["results"].([]any)
				if len(results) != 4 {
					t.Fatalf("got %d results, want 4", len(results))
				}
				// The point op follows the insert in the same batch, so it
				// must observe it (reads re-pin their view after writes).
				if results[2].(map[string]any)["found"] != true {
					t.Errorf("batch read did not observe earlier batch write: %v", results[2])
				}
				if results[3].(map[string]any)["found"] != true {
					t.Errorf("batch delete missed the batch insert: %v", results[3])
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
	if stats.CoalescedPasses < 1 || stats.CoalescedReads < stats.CoalescedPasses {
		t.Errorf("coalescer counters look wrong: passes=%d reads=%d", stats.CoalescedPasses, stats.CoalescedReads)
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
// saturated-index stand-in for admission tests.
type blockingBackend struct {
	Backend
	gate chan struct{}
}

type blockingView struct {
	ReadView
	gate chan struct{}
}

func (b *blockingBackend) View() ReadView {
	return &blockingView{ReadView: b.Backend.View(), gate: b.gate}
}

func (v *blockingView) RangeCount(r wazi.Rect) int {
	<-v.gate
	return v.ReadView.RangeCount(r)
}

// TestAdmissionShedsWith429 saturates a 1-slot, 0-queue gate and asserts
// the next request is shed with 429 + Retry-After while the index stays
// untouched, then confirms the server recovers once the slot frees up.
func TestAdmissionShedsWith429(t *testing.T) {
	b, _ := newTestBackend(t)
	blocked := &blockingBackend{Backend: b, gate: make(chan struct{})}
	srv := New(blocked, Config{MaxInflight: 1, NoQueue: true, CoalesceWorkers: 1, CoalesceBatch: 1})
	defer srv.Close()
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
	srv := New(blocked, Config{MaxInflight: 1, MaxQueue: 8, CoalesceWorkers: 1, CoalesceBatch: 1})
	defer srv.Close()
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

// TestCoalescerGroupsReads drives many concurrent reads through a one-worker
// coalescer and asserts they were folded into fewer snapshot passes.
func TestCoalescerGroupsReads(t *testing.T) {
	b, _ := newTestBackend(t)
	co := newCoalescer(b, 1, 16, 256)
	defer co.close()

	// Occupy the single worker with a read that blocks, let the remaining
	// reads pile up in the queue, then release: the worker must drain them
	// in grouped snapshot passes, not one by one.
	started := make(chan struct{})
	release := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		_, err := co.run(context.Background(), func(v ReadView) any {
			close(started)
			<-release
			return nil
		})
		if err != nil {
			t.Errorf("blocking read failed: %v", err)
		}
	}()
	<-started

	const n = 127
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := co.run(context.Background(), func(v ReadView) any {
				return v.RangeCount(wazi.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
			})
			if err != nil {
				t.Errorf("coalesced read failed: %v", err)
			}
		}()
	}
	waitFor(t, func() bool { return len(co.tasks) == n })
	close(release)
	wg.Wait()
	<-blockerDone

	reads, passes := co.reads.Load(), co.batches.Load()
	if reads != n+1 {
		t.Fatalf("executed %d reads, want %d", reads, n+1)
	}
	// 1 pass for the blocker + ceil(127/16) = 8 for the backlog.
	if want := int64(1 + (n+15)/16); passes > want {
		t.Errorf("%d passes for %d reads, want <= %d", passes, reads, want)
	}
	t.Logf("%d reads in %d snapshot passes (avg batch %.1f)", reads, passes, float64(reads)/float64(passes))
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
