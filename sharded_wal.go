package wazi

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/wazi-index/wazi/internal/wal"
)

// This file threads the group-commit write-ahead log (internal/wal) through
// the Sharded write path. With WithWAL configured, every Insert/Delete
// appends a logical record before it is acknowledged, Save stamps the
// snapshot with the log position it covers, and NewSharded/LoadSharded
// replay the log tail on startup so a restart recovers exactly the
// acknowledged writes. See docs/DURABILITY.md.

// WithWAL puts a write-ahead log in dir: every acknowledged Insert/Delete
// is durable per the configured sync policy (WithWALSync, default group
// commit), and the next NewSharded or LoadSharded over the same directory
// replays the tail. The directory must not be shared by two live instances.
func WithWAL(dir string) ShardedOption {
	return func(c *shardedConfig) { c.walDir = dir }
}

// WithWALSync sets the WAL durability policy: "group" (batched fsync before
// acknowledgement, the default), "always" (fsync every write), or "none"
// (no fsync on the write path; survives process crashes via the page cache,
// not power loss). An unknown policy fails NewSharded/LoadSharded.
func WithWALSync(policy string) ShardedOption {
	return func(c *shardedConfig) { c.walSync = policy }
}

// WithWALSegmentBytes sets the WAL segment rotation threshold (default
// 16 MiB). Small values exist for tests that need to exercise rotation and
// truncation cheaply.
func WithWALSegmentBytes(n int64) ShardedOption {
	return func(c *shardedConfig) { c.walSegmentBytes = n }
}

// withWALFS substitutes the WAL's filesystem — the crash-injection seam
// (internal/indextest.CrashFS).
func withWALFS(fs wal.FS) ShardedOption {
	return func(c *shardedConfig) { c.walFS = fs }
}

// walOpBytes is the fixed logical record payload: an op byte (0 insert,
// 1 delete) followed by the point's two little-endian float64 coordinates.
const walOpBytes = 17

// appendWALOp appends the canonical payload encoding of one logical write.
func appendWALOp(dst []byte, p Point, del bool) []byte {
	var rec [walOpBytes]byte
	if del {
		rec[0] = 1
	}
	binary.LittleEndian.PutUint64(rec[1:9], math.Float64bits(p.X))
	binary.LittleEndian.PutUint64(rec[9:17], math.Float64bits(p.Y))
	return append(dst, rec[:]...)
}

// decodeWALOp decodes one logical write.
func decodeWALOp(payload []byte) (p Point, del bool, err error) {
	if len(payload) != walOpBytes {
		return Point{}, false, fmt.Errorf("wazi: wal record payload is %d bytes, want %d", len(payload), walOpBytes)
	}
	switch payload[0] {
	case 0:
	case 1:
		del = true
	default:
		return Point{}, false, fmt.Errorf("wazi: wal record has unknown op %d", payload[0])
	}
	p.X = math.Float64frombits(binary.LittleEndian.Uint64(payload[1:9]))
	p.Y = math.Float64frombits(binary.LittleEndian.Uint64(payload[9:17]))
	if math.IsNaN(p.X) || math.IsNaN(p.Y) {
		return Point{}, false, fmt.Errorf("wazi: wal record carries NaN coordinates")
	}
	return p, del, nil
}

// walAppendLocked logs one write. Called with s.mu held, immediately after
// the in-memory apply: sequence order and apply order are therefore
// identical, so replay reproduces exactly the applied history. Returns 0
// when no wait is needed (WAL disabled, replaying, or append failed — the
// failure is sticky and surfaces through WALStats/WALErr).
func (s *Sharded) walAppendLocked(p Point, del bool) uint64 {
	if s.wal == nil || s.walRecovering {
		return 0
	}
	s.walBuf = appendWALOp(s.walBuf[:0], p, del)
	seq, err := s.wal.Append(s.walBuf)
	if err != nil {
		return 0
	}
	return seq
}

// walAck blocks until seq is durable — the write path's acknowledgement
// gate, called after s.mu is released so fsyncs never block other writers'
// in-memory applies (that is what makes group commit batch).
func (s *Sharded) walAck(seq uint64) {
	if seq == 0 || s.wal == nil {
		return
	}
	s.wal.WaitDurable(seq)
}

// initWAL opens the log and replays every record past afterSeq through the
// normal write path, with re-logging suppressed. Called during construction after the snapshot
// exists but before the background loop starts, so no concurrency.
func (s *Sharded) initWAL(afterSeq uint64) error {
	if s.opts.walDir == "" {
		return nil
	}
	sync, err := wal.ParseSync(s.opts.walSync)
	if err != nil {
		return err
	}
	w, err := wal.Open(wal.Options{
		Dir:          s.opts.walDir,
		Sync:         sync,
		SegmentBytes: s.opts.walSegmentBytes,
		FS:           s.opts.walFS,
	})
	if err != nil {
		return err
	}
	if s.obs != nil {
		w.SetFsyncObs(s.obs.WALFsync)
	}
	s.wal = w
	s.walRecovering = true
	st, err := w.Replay(afterSeq, func(seq uint64, payload []byte) error {
		p, del, err := decodeWALOp(payload)
		if err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		if del {
			s.Delete(p)
		} else {
			s.Insert(p)
		}
		return nil
	})
	s.walRecovering = false
	if err != nil {
		w.Close()
		s.wal = nil
		return fmt.Errorf("wazi: replaying wal: %w", err)
	}
	s.walRecovered = st
	return nil
}

// closeWAL seals the log on Close (final fsync, segment closed).
func (s *Sharded) closeWAL() {
	if s.wal != nil {
		s.wal.Close()
	}
}

// WALStats reports the write-ahead log's state; Enabled is false when the
// index runs without one.
type WALStats struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	Sync    string `json:"sync,omitempty"`
	// Appends counts records logged since startup; AppendedBytes their
	// encoded size; Fsyncs, Rotations, Truncations the respective events.
	Appends       int64 `json:"appends"`
	AppendedBytes int64 `json:"appended_bytes"`
	Fsyncs        int64 `json:"fsyncs"`
	Rotations     int64 `json:"rotations"`
	Truncations   int64 `json:"truncations"`
	// LastSeq is the last assigned sequence number; DurableSeq the highest
	// covered by an fsync.
	LastSeq    uint64 `json:"last_seq"`
	DurableSeq uint64 `json:"durable_seq"`
	// RecoveredRecords / RecoveredSeq describe the startup replay: how many
	// records were applied past the snapshot's cut and the log's last valid
	// sequence number. RecoveredTorn reports that opening it met a torn tail.
	RecoveredRecords int    `json:"recovered_records"`
	RecoveredSeq     uint64 `json:"recovered_seq"`
	RecoveredTorn    bool   `json:"recovered_torn"`
	// Err is the sticky error message, empty while the log is healthy.
	Err string `json:"err,omitempty"`
}

// WALStats snapshots the write-ahead log's counters and recovery status.
func (s *Sharded) WALStats() WALStats {
	if s.wal == nil {
		return WALStats{}
	}
	st := s.wal.Stats()
	sync, _ := wal.ParseSync(s.opts.walSync)
	out := WALStats{
		Enabled:          true,
		Dir:              s.opts.walDir,
		Sync:             sync.String(),
		Appends:          st.Appends,
		AppendedBytes:    st.AppendedBytes,
		Fsyncs:           st.Fsyncs,
		Rotations:        st.Rotations,
		Truncations:      st.Truncations,
		LastSeq:          st.LastSeq,
		DurableSeq:       st.DurableSeq,
		RecoveredRecords: s.walRecovered.Records,
		RecoveredSeq:     s.walRecovered.LastSeq,
		RecoveredTorn:    st.Torn,
	}
	if st.Err != nil {
		out.Err = st.Err.Error()
	}
	return out
}

// WALErr returns the log's sticky error: non-nil once any WAL filesystem
// operation has failed, after which no further write is durable (the index
// keeps serving, but a caller that requires durability must treat writes
// as unacknowledged). Nil when the WAL is disabled or healthy.
func (s *Sharded) WALErr() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Err()
}

// TruncateWAL drops log segments made redundant by the most recent Save:
// every record at or below the snapshot's recorded cut. Call it only once
// that Save's output is durably on disk (fsynced, and renamed into place if
// written via a temp file) — truncating against a snapshot that can still
// be lost would lose acknowledged writes with it. This is the
// Save-truncation invariant; cmd/waziserve's snapshot writer is the
// reference caller. Returns how many segments were removed.
func (s *Sharded) TruncateWAL() (int, error) {
	if s.wal == nil {
		return 0, nil
	}
	return s.wal.TruncateBefore(s.lastSaveCut.Load())
}

// MultisetChecksum is an order-independent checksum over a point multiset:
// equal multisets — any order, including duplicates — produce equal sums.
// The crash-recovery tests and the server's /debug/checksum endpoint use it
// to compare full-index contents across restarts.
func MultisetChecksum(pts []Point) uint64 {
	var sum uint64
	for _, p := range pts {
		h := math.Float64bits(p.X)*0x9e3779b97f4a7c15 ^ math.Float64bits(p.Y)*0xc2b2ae3d27d4eb4f
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		sum += h
	}
	return sum
}

// ContentChecksum materializes every shard of the current snapshot and
// returns the multiset checksum of the full contents plus the live point
// count. It reads a single immutable snapshot, so it is safe concurrent
// with writes — the result is the checksum of one consistent state.
func (s *Sharded) ContentChecksum() (sum uint64, points int) {
	for _, ss := range s.snap.Load().shards {
		pts := materialize(ss)
		sum += MultisetChecksum(pts)
		points += len(pts)
	}
	return sum, points
}
