package server

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/indextest"
	"github.com/wazi-index/wazi/internal/workload"
)

// TestMappedFaultIs500 serves a disk-backed Sharded, empties one shard's
// page file under it, and reads that shard: every page read now faults in
// the mapping, which must fail the request with a 500 rather than kill the
// process, while /statsz and reads of the other shards keep answering. It
// runs isolated, so a fault that does kill the process fails the test
// instead of the test run.
func TestMappedFaultIs500(t *testing.T) {
	indextest.RunIsolated(t, func(t *testing.T) {
		log.SetOutput(io.Discard) // the recovered panic's stack trace
		defer log.SetOutput(os.Stderr)
		dir := t.TempDir()
		pts := dataset.Generate(dataset.NewYork, 4000, 1)
		train := workload.Skewed(dataset.NewYork, 150, 0.0256e-2, 2)
		s, err := wazi.NewSharded(pts, train, wazi.WithShards(4), wazi.WithoutAutoRebuild(),
			wazi.WithShardedStorage(dir, 4), wazi.WithIndexOptions(wazi.WithLeafSize(64), wazi.WithSeed(3)))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		srv := New(Sharded(s), Config{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := &http.Client{Timeout: 30 * time.Second} // a store left locked hangs
		status := func(method, path string, r wazi.Rect) int {
			t.Helper()
			body := fmt.Sprintf(`{"rect":{"MinX":%g,"MinY":%g,"MaxX":%g,"MaxY":%g}}`, r.MinX, r.MinY, r.MaxX, r.MaxY)
			req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}

		cut := s.Shards()[0].Bounds
		files, _ := filepath.Glob(filepath.Join(dir, "shard-e000-0000-*.pages"))
		if len(files) != 1 {
			t.Fatalf("shard 0 page files: %v, want one", files)
		}
		if err := os.Truncate(files[0], 0); err != nil {
			t.Fatal(err)
		}
		if code := status(http.MethodPost, "/v1/range", cut); code != http.StatusInternalServerError {
			t.Fatalf("range over the cut shard answered %d, want 500", code)
		}
		if got := srv.panics.Value(); got != 1 {
			t.Fatalf("wazi_http_panics_total = %d, want 1", got)
		}
		if code := status(http.MethodGet, "/statsz", wazi.Rect{}); code != http.StatusOK {
			t.Fatalf("/statsz after the fault answered %d, want 200", code)
		}
		for _, p := range pts {
			r := wazi.Rect{MinX: p.X - 1e-4, MinY: p.Y - 1e-4, MaxX: p.X + 1e-4, MaxY: p.Y + 1e-4}
			if !r.Intersects(cut) {
				if code := status(http.MethodPost, "/v1/range", r); code != http.StatusOK {
					t.Fatalf("range over another shard answered %d, want 200", code)
				}
				return
			}
		}
		t.Fatal("every point lies near the cut shard")
	})
}
