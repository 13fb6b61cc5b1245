package wazi

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/wazi-index/wazi/internal/shard"
)

// RecentWindow returns shard i's recent-query ring contents — a test hook
// for asserting that warm starts preserve the drift window that rebuilds
// train on.
func (s *Sharded) RecentWindow(i int) []Rect { return s.snap.Load().ctls[i].recent.snapshot() }

// ShardOf returns the shard that owns p under the serving plan.
func (s *Sharded) ShardOf(p Point) int { return s.snap.Load().plan.Locate(p) }

// RebuildShard compacts and rebuilds shard i now, as the control loop would.
func (s *Sharded) RebuildShard(i int) bool { return s.rebuildShard(i) }

// ShardState reports whether shard i serves nothing at all, and whether it
// serves from its insert buffer alone (no built index) — the two states the
// kNN exactness tests must be sure they reached.
func (s *Sharded) ShardState(i int) (empty, bufferOnly bool) {
	ss := s.snap.Load().shards[i]
	return ss.empty, ss.idx == nil && ss.extra.size() > 0
}

// DoctorSnapshotVersion re-encodes a saved sharded snapshot with the header
// version replaced, preserving the migration record and every shard record
// — a test hook for asserting that Load refuses future format versions with
// a clear error.
func DoctorSnapshotVersion(t *testing.T, buf *bytes.Buffer, version int) []byte {
	t.Helper()
	return doctorSnapshot(t, buf.Bytes(), func(h *shardedHeader) { h.Version = version }, nil)
}

// doctorSnapshot re-encodes a saved sharded snapshot with its header passed
// through editHeader and each shard record through editShard (either may be
// nil), preserving the migration record.
func doctorSnapshot(t testing.TB, data []byte, editHeader func(*shardedHeader), editShard func(int, *shardedShardRecord)) []byte {
	t.Helper()
	dec := gob.NewDecoder(bytes.NewReader(data))
	var h shardedHeader
	if err := dec.Decode(&h); err != nil {
		t.Fatalf("doctoring snapshot: decode header: %v", err)
	}
	shards := h.Shards
	if editHeader != nil {
		editHeader(&h)
	}
	var out bytes.Buffer
	enc := gob.NewEncoder(&out)
	if err := enc.Encode(&h); err != nil {
		t.Fatalf("doctoring snapshot: encode header: %v", err)
	}
	var mig migrationRecord
	if err := dec.Decode(&mig); err != nil {
		t.Fatalf("doctoring snapshot: decode migration record: %v", err)
	}
	if err := enc.Encode(&mig); err != nil {
		t.Fatalf("doctoring snapshot: encode migration record: %v", err)
	}
	for i := 0; i < shards; i++ {
		var rec shardedShardRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("doctoring snapshot: decode shard %d: %v", i, err)
		}
		if editShard != nil {
			editShard(i, &rec)
		}
		if err := enc.Encode(&rec); err != nil {
			t.Fatalf("doctoring snapshot: encode shard %d: %v", i, err)
		}
	}
	return out.Bytes()
}

// ForceMigrationState installs an in-flight migration record (target plan
// learned from the live points under the given workload) without running
// the migration — the deterministic way for tests and fuzz seeds to obtain
// a real mid-migration Save. Call ClearMigrationState before further use.
func (s *Sharded) ForceMigrationState(t testing.TB, window []Rect, shards int) {
	t.Helper()
	snap := s.snap.Load()
	var pts []Point
	for _, ss := range snap.shards {
		pts = append(pts, materialize(ss)...)
	}
	if len(pts) == 0 {
		t.Fatal("ForceMigrationState: empty index")
	}
	target := shard.Partition(pts, window, shards)
	s.mu.Lock()
	s.repartInFlight = true
	s.repartTarget = target
	s.mu.Unlock()
}

// ForceMigrationLearnPhase marks a migration in flight with no target plan
// yet — the learn-phase window between raising the in-flight flag and
// finishing Partition, during which Save must still produce a restorable
// snapshot. Call ClearMigrationState before further use.
func (s *Sharded) ForceMigrationLearnPhase() {
	s.mu.Lock()
	s.repartInFlight = true
	s.repartTarget = nil
	s.mu.Unlock()
}

// ClearMigrationState undoes ForceMigrationState.
func (s *Sharded) ClearMigrationState() {
	s.mu.Lock()
	s.repartInFlight = false
	s.repartTarget = nil
	s.repartLog = nil
	s.mu.Unlock()
}
