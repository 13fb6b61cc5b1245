package server

import (
	"fmt"
	"net/http"

	wazi "github.com/wazi-index/wazi"
)

// This file surfaces the write-ahead log operationally: WAL counters and
// recovery status in /statsz and /metrics, the full-contents checksum
// endpoint crash-recovery smoke tests diff across restarts, and the
// snapshot-then-truncate hook WriteSnapshot runs.

// walBackend is the optional backend surface of durability-logging
// backends; *wazi.Sharded (via the Sharded adapter) provides it when built
// WithWAL, test doubles usually don't. WALErr is lock-free: the server
// reads it after every write, and a write made once the log has failed is
// not durable, so it is not acknowledged.
type walBackend interface {
	WALStats() wazi.WALStats
	TruncateWAL() (int, error)
	WALErr() error
}

// checksumBackend is the optional backend surface behind /debug/checksum:
// an order-independent checksum over the full live contents, comparable
// across processes and storage backends.
type checksumBackend interface {
	ContentChecksum() (sum uint64, points int)
}

// walStats returns the backend's WAL stats, or nil when the backend does
// not log (or logs but has the WAL disabled).
func (s *Server) walStats() *wazi.WALStats {
	if s.wal == nil {
		return nil
	}
	st := s.wal.WALStats()
	if !st.Enabled {
		return nil
	}
	return &st
}

// truncateWAL drops WAL segments covered by the last Save; a no-op for
// backends without a log.
func (s *Server) truncateWAL() (int, error) {
	if s.wal != nil {
		return s.wal.TruncateWAL()
	}
	return 0, nil
}

// registerWALMetrics exports the WAL counters under stable names. Called
// from initObs when the backend logs.
func (s *Server) registerWALMetrics() {
	wb := s.wal
	if wb == nil || !wb.WALStats().Enabled {
		return
	}
	reg := s.reg
	reg.CounterFunc("wazi_wal_appends_total", "Records appended to the write-ahead log.",
		func() float64 { return float64(wb.WALStats().Appends) })
	reg.CounterFunc("wazi_wal_appended_bytes_total", "Bytes appended to the write-ahead log.",
		func() float64 { return float64(wb.WALStats().AppendedBytes) })
	reg.CounterFunc("wazi_wal_fsyncs_total", "Fsyncs issued by the write-ahead log.",
		func() float64 { return float64(wb.WALStats().Fsyncs) })
	reg.CounterFunc("wazi_wal_rotations_total", "Write-ahead-log segment rotations.",
		func() float64 { return float64(wb.WALStats().Rotations) })
	reg.CounterFunc("wazi_wal_truncations_total", "Write-ahead-log truncations after snapshots.",
		func() float64 { return float64(wb.WALStats().Truncations) })
	reg.GaugeFunc("wazi_wal_last_seq", "Last assigned write-ahead-log sequence number.",
		func() float64 { return float64(wb.WALStats().LastSeq) })
	reg.GaugeFunc("wazi_wal_durable_seq", "Highest fsync-covered write-ahead-log sequence number.",
		func() float64 { return float64(wb.WALStats().DurableSeq) })
	reg.GaugeFunc("wazi_wal_healthy", "1 while the write-ahead log has no sticky error.",
		func() float64 {
			if wb.WALStats().Err == "" {
				return 1
			}
			return 0
		})
}

// checksumResp is the JSON shape of /debug/checksum. The checksum is hex
// text: a uint64 does not survive a round-trip through a JSON number.
type checksumResp struct {
	Checksum string `json:"checksum"`
	Points   int    `json:"points"`
}

// handleChecksum serves the full-contents multiset checksum. It
// materializes every shard of one consistent snapshot — an O(n) scan, so
// it lives under /debug/ next to pprof and slowlog, not on the op surface.
func (s *Server) handleChecksum(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "/debug/checksum requires GET")
		return
	}
	cb, ok := s.b.(checksumBackend)
	if !ok {
		writeError(w, http.StatusNotImplemented, "backend has no content checksum")
		return
	}
	sum, points := cb.ContentChecksum()
	writeJSON(w, http.StatusOK, checksumResp{
		Checksum: fmt.Sprintf("%016x", sum),
		Points:   points,
	})
}
