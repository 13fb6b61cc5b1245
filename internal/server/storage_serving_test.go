package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/workload"
)

// TestServingDiskBackedStatsz serves a disk-backed Sharded over HTTP and
// checks that /statsz surfaces the block-cache counters, and that query
// results match a RAM-backed twin over the wire.
func TestServingDiskBackedStatsz(t *testing.T) {
	dir := t.TempDir()
	pts := dataset.Generate(dataset.NewYork, 4000, 1)
	train := workload.Skewed(dataset.NewYork, 150, 0.0256e-2, 2)
	mk := func(opts ...wazi.ShardedOption) *wazi.Sharded {
		opts = append([]wazi.ShardedOption{
			wazi.WithShards(4), wazi.WithoutAutoRebuild(),
			wazi.WithIndexOptions(wazi.WithLeafSize(64), wazi.WithSeed(3)),
		}, opts...)
		s, err := wazi.NewSharded(pts, train, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	disk := mk(wazi.WithShardedStorage(dir, 32))
	defer disk.Close()
	ram := mk()
	defer ram.Close()

	srv := New(Sharded(disk), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i, q := range train[:50] {
		body := fmt.Sprintf(`{"rect":{"MinX":%g,"MinY":%g,"MaxX":%g,"MaxY":%g}}`,
			q.MinX, q.MinY, q.MaxX, q.MaxY)
		code, resp := post(t, ts, "/v1/count", body)
		if code != http.StatusOK {
			t.Fatalf("count %d: status %d", i, code)
		}
		want := ram.RangeCount(q)
		if int(resp["count"].(float64)) != want {
			t.Fatalf("count %d over disk = %v, want %d", i, resp["count"], want)
		}
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decoding /statsz: %v", err)
	}
	for _, key := range []string{"cache_hits", "cache_misses", "cache_evictions"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("/statsz missing %q", key)
		}
	}
	if stats["cache_hits"].(float64)+stats["cache_misses"].(float64) == 0 {
		t.Fatal("/statsz reports no cache traffic from a disk-backed index")
	}
	idxStats, ok := stats["index_stats"].(map[string]any)
	if !ok {
		t.Fatal("/statsz missing index_stats")
	}
	if idxStats["CacheMisses"].(float64) != stats["cache_misses"].(float64) {
		t.Fatal("top-level cache counters disagree with index_stats")
	}

	// Exercise the batch path against the disk backend too.
	var ops []string
	for _, q := range train[:8] {
		ops = append(ops, fmt.Sprintf(`{"op":"range","rect":{"MinX":%g,"MinY":%g,"MaxX":%g,"MaxY":%g}}`,
			q.MinX, q.MinY, q.MaxX, q.MaxY))
	}
	code, _ := post(t, ts, "/v1/batch", `{"ops":[`+strings.Join(ops, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("batch over disk backend: status %d", code)
	}
}
