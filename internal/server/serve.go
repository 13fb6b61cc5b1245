package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// Serve runs the server on ln until ctx is cancelled (cmd/waziserve wires
// SIGTERM/SIGINT into the context), then performs the graceful shutdown
// sequence:
//
//  1. stop accepting and drain in-flight requests (bounded by DrainTimeout);
//  2. write the warm-start snapshot, if SnapshotPath is configured, via
//     write-temp-then-rename so a crash mid-write never corrupts the
//     previous snapshot.
//
// It returns nil after a clean shutdown, the listener error if serving
// failed, and the drain/snapshot error otherwise.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		// The drain budget ran out with requests still in flight; close hard
		// so the snapshot below is still written.
		_ = hs.Close()
	}
	if serr := s.WriteSnapshot(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// WriteSnapshot writes the backend's warm-start snapshot to SnapshotPath
// atomically and durably (temp file + fsync + rename + directory fsync),
// then truncates the write-ahead log up to the snapshot's cut. The order
// is the Save-truncation invariant (docs/DURABILITY.md): the log may only
// shrink once the snapshot that replaces its prefix cannot be lost, which
// is after the rename is itself durable — never on Save alone. It is a
// no-op when no path is configured.
func (s *Server) WriteSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	tmp := s.cfg.SnapshotPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("server: creating snapshot: %w", err)
	}
	if err := s.b.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("server: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("server: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.cfg.SnapshotPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: publishing snapshot: %w", err)
	}
	syncDir(filepath.Dir(s.cfg.SnapshotPath))
	if _, err := s.truncateWAL(); err != nil {
		// The snapshot is published; a failed truncation only leaves extra
		// log to replay (and a sticky WAL error in /statsz), so don't fail
		// shutdown over it.
		return nil
	}
	return nil
}

// syncDir makes a rename in dir durable. Best effort: some filesystems
// refuse directory fsyncs, and the snapshot is still correct either way —
// only its crash-durability window widens.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}

// ListenAndServe listens on addr (pass host:0 for an ephemeral port) and
// serves until ctx is cancelled. ready, when non-nil, receives the bound
// address exactly once — how cmd/waziserve publishes its random port to
// scripts and how tests learn where to dial.
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	return s.Serve(ctx, ln)
}

// WaitHealthy polls GET /healthz at baseURL until it answers 200 or the
// budget elapses — the boot handshake shared by waziload, the serving
// experiments, and CI smoke scripts.
func WaitHealthy(baseURL string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: time.Second}
	var last error
	for time.Now().Before(deadline) {
		resp, err := client.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("healthz returned %s", resp.Status)
		} else {
			last = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not healthy after %v: %w", baseURL, budget, last)
}
