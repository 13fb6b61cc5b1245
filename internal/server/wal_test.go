package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/workload"
)

// newWALTestServer builds a serving stack over a WAL-backed Sharded.
func newWALTestServer(t *testing.T, cfg Config, walDir string) (*Server, *httptest.Server, *wazi.Sharded) {
	t.Helper()
	pts := dataset.Generate(dataset.NewYork, 2000, 1)
	qs := workload.Skewed(dataset.NewYork, 100, 0.0256e-2, 2)
	s, err := wazi.NewSharded(pts, qs, wazi.WithShards(4), wazi.WithoutAutoRebuild(),
		wazi.WithWAL(walDir), wazi.WithWALSync("group"))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	t.Cleanup(s.Close)
	srv := New(Sharded(s), cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, s
}

// TestStatszAndMetricsExposeWAL asserts the WAL section lands in /statsz
// and the WAL series land in /metrics once writes have flowed.
func TestStatszAndMetricsExposeWAL(t *testing.T) {
	_, ts, _ := newWALTestServer(t, Config{}, filepath.Join(t.TempDir(), "wal"))
	for i := 0; i < 5; i++ {
		code, _ := post(t, ts, "/v1/insert", fmt.Sprintf(`{"point":{"x":%d.5,"y":3.5}}`, i))
		if code != 200 {
			t.Fatalf("insert status %d", code)
		}
	}
	code, body := get(t, ts, "/statsz")
	if code != 200 {
		t.Fatalf("/statsz status %d", code)
	}
	var resp struct {
		WAL *wazi.WALStats `json:"wal"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding /statsz: %v", err)
	}
	if resp.WAL == nil || !resp.WAL.Enabled {
		t.Fatal("/statsz has no WAL section despite WithWAL")
	}
	if resp.WAL.Appends != 5 || resp.WAL.DurableSeq != resp.WAL.LastSeq {
		t.Fatalf("WAL section off: %+v", resp.WAL)
	}
	if resp.WAL.Err != "" {
		t.Fatalf("healthy WAL reports error %q", resp.WAL.Err)
	}

	code, body = get(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, series := range []string{
		"wazi_wal_appends_total", "wazi_wal_fsyncs_total", "wazi_wal_durable_seq",
		"wazi_wal_healthy", "wazi_wal_fsync_seconds",
	} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("/metrics missing %s", series)
		}
	}
}

// TestStatszOmitsWALWhenDisabled asserts a WAL-less backend produces no
// "wal" key at all (omitempty on the pointer).
func TestStatszOmitsWALWhenDisabled(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	code, body := get(t, ts, "/statsz")
	if code != 200 {
		t.Fatalf("/statsz status %d", code)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("decoding /statsz: %v", err)
	}
	if _, ok := raw["wal"]; ok {
		t.Fatal("/statsz exposes a wal section for a WAL-less backend")
	}
}

// TestChecksumEndpoint asserts /debug/checksum is stable across reads,
// sensitive to writes, and GET-only.
func TestChecksumEndpoint(t *testing.T) {
	_, ts, idx := newWALTestServer(t, Config{}, filepath.Join(t.TempDir(), "wal"))
	read := func() checksumResp {
		t.Helper()
		code, body := get(t, ts, "/debug/checksum")
		if code != 200 {
			t.Fatalf("/debug/checksum status %d: %s", code, body)
		}
		var r checksumResp
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("decoding /debug/checksum: %v", err)
		}
		return r
	}
	a, b := read(), read()
	if a != b {
		t.Fatalf("checksum unstable without writes: %+v vs %+v", a, b)
	}
	if a.Points != idx.Len() {
		t.Fatalf("checksum points %d, index Len %d", a.Points, idx.Len())
	}
	if code, _ := post(t, ts, "/v1/insert", `{"point":{"x":1.25,"y":2.25}}`); code != 200 {
		t.Fatal("insert failed")
	}
	c := read()
	if c == a || c.Points != a.Points+1 {
		t.Fatalf("checksum blind to a write: before %+v, after %+v", a, c)
	}
	if code, _ := post(t, ts, "/debug/checksum", `{}`); code != 405 {
		t.Fatalf("POST /debug/checksum status %d, want 405", code)
	}
}

// plainBackend narrows a Backend to exactly the Backend method set, hiding
// the optional wal/checksum surfaces the underlying Sharded promotes.
type plainBackend struct{ Backend }

// TestChecksumWithoutBackendSupport asserts backends without ContentChecksum
// get 501, not a panic.
func TestChecksumWithoutBackendSupport(t *testing.T) {
	b, _ := newTestBackend(t)
	srv := New(plainBackend{b}, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if code, _ := get(t, ts, "/debug/checksum"); code != 501 {
		t.Fatalf("/debug/checksum on a plain backend: status %d, want 501", code)
	}
}

// TestWriteSnapshotTruncatesWAL asserts the snapshot-write path honors the
// Save-truncation invariant end to end: after WriteSnapshot, redundant WAL
// segments are gone, and a restart from the snapshot plus the remaining
// tail recovers the full contents.
func TestWriteSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	snapPath := filepath.Join(dir, "snap.bin")
	pts := dataset.Generate(dataset.NewYork, 2000, 1)
	qs := workload.Skewed(dataset.NewYork, 100, 0.0256e-2, 2)
	s, err := wazi.NewSharded(pts, qs, wazi.WithShards(4), wazi.WithoutAutoRebuild(),
		wazi.WithWAL(walDir), wazi.WithWALSync("group"), wazi.WithWALSegmentBytes(256))
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	srv := New(Sharded(s), Config{SnapshotPath: snapPath})
	for i := 0; i < 200; i++ {
		s.Insert(wazi.Point{X: float64(i), Y: float64(i)})
	}
	segsBefore := countWALSegments(t, walDir)
	if err := srv.WriteSnapshot(); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if got := countWALSegments(t, walDir); got >= segsBefore {
		t.Fatalf("WriteSnapshot left %d segments (was %d); truncation did not run", got, segsBefore)
	}
	// Post-snapshot writes live only in the surviving tail.
	for i := 0; i < 30; i++ {
		s.Insert(wazi.Point{X: float64(i) + 0.5, Y: float64(i) + 0.5})
	}
	wantSum, wantN := s.ContentChecksum()
	s.Close()

	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatalf("opening snapshot: %v", err)
	}
	defer f.Close()
	r, err := wazi.LoadSharded(f, wazi.WithoutAutoRebuild(),
		wazi.WithWAL(walDir), wazi.WithWALSync("group"), wazi.WithWALSegmentBytes(256))
	if err != nil {
		t.Fatalf("LoadSharded: %v", err)
	}
	defer r.Close()
	if st := r.WALStats(); st.RecoveredRecords != 30 {
		t.Fatalf("recovered %d records past the snapshot, want 30", st.RecoveredRecords)
	}
	gotSum, gotN := r.ContentChecksum()
	if gotSum != wantSum || gotN != wantN {
		t.Fatalf("restart diverged: %x/%d, want %x/%d", gotSum, gotN, wantSum, wantN)
	}
}

func countWALSegments(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatalf("globbing wal dir: %v", err)
	}
	return len(matches)
}
