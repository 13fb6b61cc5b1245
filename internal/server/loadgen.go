package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wazi-index/wazi/internal/bench/harness"
	"github.com/wazi-index/wazi/internal/workload"
)

// This file is the load-generation core shared by cmd/waziload and the
// serving-http bench experiment: replay a wire-encoded operation stream
// against a running server, either one op per request or folded into
// /v1/batch requests, and summarize throughput and request latency.

// LoadOptions configures one load pass.
type LoadOptions struct {
	// Clients is the number of concurrent client goroutines (default 16).
	Clients int
	// Duration is the wall budget of the pass (default 2s).
	Duration time.Duration
	// Batch > 1 folds that many consecutive ops into each /v1/batch
	// request; Batch <= 1 replays op by op on the per-op endpoints.
	Batch int
}

func (o *LoadOptions) fill() {
	if o.Clients <= 0 {
		o.Clients = 16
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.Batch < 1 {
		o.Batch = 1
	}
}

// LoadResult is one pass's outcome.
type LoadResult struct {
	Mode      string          `json:"mode"` // "single" or "batch"
	Clients   int             `json:"clients"`
	Batch     int             `json:"batch"`
	Ops       int64           `json:"ops"`
	Requests  int64           `json:"requests"`
	Errors    int64           `json:"errors"`
	Shed      int64           `json:"shed"` // 429 responses, counted separately from errors
	ElapsedNS int64           `json:"elapsed_ns"`
	OpsPerSec float64         `json:"ops_per_sec"`
	ReqPerSec float64         `json:"req_per_sec"`
	LatencyNS harness.Summary `json:"latency_ns"` // per-request latency
}

// LoadTable renders load results in the harness table shape shared by
// cmd/waziload and the serving-http bench experiment, with unit-bearing
// headers so metric mining tags throughput as higher-is-better and the
// latencies as nanoseconds.
func LoadTable(id, suiteName string, clients int, results []LoadResult) harness.Table {
	t := harness.Table{
		ID:     id,
		Title:  fmt.Sprintf("HTTP serving throughput, suite %s, %d clients", suiteName, clients),
		Header: []string{"Mode", "Batch", "Throughput (q/s)", "Requests (q/s)", "p50 (ns)", "p95 (ns)", "p99 (ns)", "Errors", "Shed"},
		Notes: []string{
			"Throughput counts logical index ops; batch mode amortizes HTTP+admission work per request",
			"expected shape: batch strictly above single at high client counts",
		},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Mode,
			fmt.Sprintf("%d", r.Batch),
			fmt.Sprintf("%.0f", r.OpsPerSec),
			fmt.Sprintf("%.0f", r.ReqPerSec),
			fmt.Sprintf("%.0f", r.LatencyNS.P50),
			fmt.Sprintf("%.0f", r.LatencyNS.P95),
			fmt.Sprintf("%.0f", r.LatencyNS.P99),
			fmt.Sprintf("%d", r.Errors),
			fmt.Sprintf("%d", r.Shed),
		})
	}
	return t
}

// prepared is one ready-to-send request: its path and marshalled body.
type prepared struct {
	path string
	body []byte
	ops  int
}

// prepare marshals the op stream into request bodies once, so the hot loop
// measures the server, not client-side JSON encoding.
func prepare(ops []workload.WireOp, batch int) ([]prepared, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("loadgen: empty op stream")
	}
	var out []prepared
	if batch > 1 {
		for i := 0; i < len(ops); i += batch {
			end := i + batch
			if end > len(ops) {
				end = len(ops)
			}
			body, err := json.Marshal(batchReq{Ops: ops[i:end]})
			if err != nil {
				return nil, err
			}
			out = append(out, prepared{path: "/v1/batch", body: body, ops: end - i})
		}
		return out, nil
	}
	for _, op := range ops {
		// A single-op body is the WireOp itself, the shape the handlers
		// decode; the route is its kind.
		if err := op.Validate(); err != nil {
			return nil, fmt.Errorf("loadgen: op not replayable: %w", err)
		}
		body, err := json.Marshal(op)
		if err != nil {
			return nil, err
		}
		out = append(out, prepared{path: "/v1/" + op.Op, body: body, ops: 1})
	}
	return out, nil
}

// RunLoad replays ops against the server at baseURL until the duration
// elapses, cycling through the stream as often as needed. Each client
// starts at a different offset so concurrent clients don't hammer the same
// op in lockstep. 429 responses are counted as shed (the server behaving as
// configured under overload), any other non-200 as an error; RunLoad fails
// only if nothing succeeded at all.
func RunLoad(baseURL string, ops []workload.WireOp, o LoadOptions) (LoadResult, error) {
	o.fill()
	reqs, err := prepare(ops, o.Batch)
	if err != nil {
		return LoadResult{}, err
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2 * o.Clients,
			MaxIdleConnsPerHost: 2 * o.Clients,
		},
	}
	defer client.CloseIdleConnections()

	var (
		opsDone, reqsDone, errs, shed atomic.Int64
		mu                            sync.Mutex
		latencies                     []float64
		wg                            sync.WaitGroup
	)
	deadline := time.Now().Add(o.Duration)
	start := time.Now()
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			local := make([]float64, 0, 4096)
			for i := offset; time.Now().Before(deadline); i++ {
				p := reqs[i%len(reqs)]
				t0 := time.Now()
				resp, err := client.Post(baseURL+p.path, "application/json", bytes.NewReader(p.body))
				lat := float64(time.Since(t0).Nanoseconds())
				if err != nil {
					errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					opsDone.Add(int64(p.ops))
					reqsDone.Add(1)
					local = append(local, lat)
				case resp.StatusCode == http.StatusTooManyRequests:
					shed.Add(1)
				default:
					errs.Add(1)
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}(c * len(reqs) / o.Clients)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := LoadResult{
		Mode:      map[bool]string{true: "batch", false: "single"}[o.Batch > 1],
		Clients:   o.Clients,
		Batch:     o.Batch,
		Ops:       opsDone.Load(),
		Requests:  reqsDone.Load(),
		Errors:    errs.Load(),
		Shed:      shed.Load(),
		ElapsedNS: elapsed.Nanoseconds(),
		OpsPerSec: float64(opsDone.Load()) / elapsed.Seconds(),
		ReqPerSec: float64(reqsDone.Load()) / elapsed.Seconds(),
		LatencyNS: harness.Summarize(latencies),
	}
	if res.Requests == 0 {
		return res, fmt.Errorf("loadgen: no request succeeded against %s (%d errors, %d shed)",
			baseURL, res.Errors, res.Shed)
	}
	return res, nil
}
