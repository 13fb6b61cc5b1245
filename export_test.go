package wazi

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// RecentWindow returns shard i's recent-query ring contents — a test hook
// for asserting that warm starts preserve the drift window that rebuilds
// train on.
func (s *Sharded) RecentWindow(i int) []Rect { return s.snap.Load().ctls[i].recent.snapshot() }

// ShardOf returns the shard that owns p under the serving plan.
func (s *Sharded) ShardOf(p Point) int { return s.snap.Load().plan.Locate(p) }

// RebuildShard compacts shard i now, as the control loop would on backlog:
// it folds the shard's delta into a copy of its index.
func (s *Sharded) RebuildShard(i int) bool { return s.rebuildShard(i, false) }

// FoldShard compacts shard i as RebuildShard does and returns the points
// the compacted index must hold, foldable(materialize(captured)), and the
// index it swapped in (nil when the shard ended up empty).
func (s *Sharded) FoldShard(t testing.TB, i int) (want []Point, idx *Index) {
	t.Helper()
	want, _ = foldable(materialize(s.snap.Load().shards[i]))
	if !s.RebuildShard(i) {
		t.Fatalf("the compaction of shard %d did not swap", i)
	}
	return want, s.snap.Load().shards[i].idx
}

// ShardState reports whether shard i serves nothing at all, and whether it
// serves from its insert buffer alone (no built index) — the two states the
// kNN exactness tests must be sure they reached.
func (s *Sharded) ShardState(i int) (empty, bufferOnly bool) {
	ss := s.snap.Load().shards[i]
	return ss.empty, ss.idx == nil && ss.extra.size() > 0
}

// BeginMigration starts a plan migration trained on window (the aggregated
// recent-query rings when nil) and stops at its capture — the deterministic
// way for tests to write and Save while a migration is in flight. The
// returned func runs the rest of the migration and reports whether it
// swapped; call it before further migrations.
func (s *Sharded) BeginMigration(t testing.TB, window []Rect) func() bool {
	t.Helper()
	snap, window, ok := s.beginMigration(window)
	if !ok {
		t.Fatal("BeginMigration: a migration or a shard rebuild is in flight, or the index is closed")
	}
	return func() bool { return s.migrate(snap, window) }
}

// DoctorSnapshotVersion re-encodes a saved sharded snapshot with the header
// version replaced, preserving every shard record — a test hook for
// asserting that Load refuses any other format version with a clear error.
func DoctorSnapshotVersion(t *testing.T, buf *bytes.Buffer, version int) []byte {
	t.Helper()
	return doctorSnapshot(t, buf.Bytes(), func(h *shardedHeader) { h.Version = version }, nil)
}

// doctorSnapshot re-encodes a saved sharded snapshot with its header passed
// through editHeader and each shard record through editShard (either may be
// nil).
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
