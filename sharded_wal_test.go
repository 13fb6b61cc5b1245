package wazi

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/wazi-index/wazi/internal/wal"
)

// walTestPoints builds a deterministic base dataset.
func walTestPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts
}

func walShardedOptions(dir string) []ShardedOption {
	return []ShardedOption{
		WithShards(4), WithoutAutoRebuild(),
		WithIndexOptions(WithLeafSize(64), WithSeed(7), WithExactCounts()),
		WithWAL(dir), WithWALSync("group"),
	}
}

// buildWALSharded builds a small Sharded with a WAL in dir.
func buildWALSharded(t *testing.T, pts []Point, dir string, extra ...ShardedOption) *Sharded {
	t.Helper()
	s, err := NewSharded(pts, nil, append(walShardedOptions(dir), extra...)...)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return s
}

func TestWALColdRestartRecoversWrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	base := walTestPoints(500, 1)
	s := buildWALSharded(t, base, dir)
	rng := rand.New(rand.NewSource(2))
	logged := 0 // a Delete that finds nothing is not a write and is not logged
	for i := 0; i < 300; i++ {
		if i%5 == 4 {
			if s.Delete(base[rng.Intn(len(base))]) {
				logged++
			}
		} else {
			s.Insert(Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
			logged++
		}
	}
	wantSum, wantN := s.ContentChecksum()
	st := s.WALStats()
	if !st.Enabled || st.Appends != int64(logged) {
		t.Fatalf("wal stats: enabled=%v appends=%d, want enabled with %d appends", st.Enabled, st.Appends, logged)
	}
	if st.DurableSeq != st.LastSeq {
		t.Fatalf("acked writes not durable: durable %d < last %d", st.DurableSeq, st.LastSeq)
	}
	s.Close()

	// A cold restart over the same deterministic base must replay the
	// whole log and land on identical contents.
	r := buildWALSharded(t, base, dir)
	defer r.Close()
	rst := r.WALStats()
	if rst.RecoveredRecords != logged || rst.RecoveredTorn {
		t.Fatalf("recovered %d records (torn %v), want %d clean", rst.RecoveredRecords, rst.RecoveredTorn, logged)
	}
	gotSum, gotN := r.ContentChecksum()
	if gotSum != wantSum || gotN != wantN {
		t.Fatalf("recovered contents differ: checksum %x/%d points, want %x/%d", gotSum, gotN, wantSum, wantN)
	}
	// The replayed writes were not re-logged: appends since restart is 0.
	if rst.Appends != 0 {
		t.Fatalf("recovery re-logged %d records", rst.Appends)
	}
}

// TestWALRestartReportsTornTail: a restart over a log whose last record was
// torn mid-append reports RecoveredTorn and replays the records before it;
// the restart after that, over a clean log, does not.
func TestWALRestartReportsTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	base := walTestPoints(300, 5)
	s := buildWALSharded(t, base, dir)
	for i := range 10 {
		s.Insert(Point{X: float64(i), Y: 50})
	}
	s.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (%d found)", err, len(segs))
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	for _, want := range []WALStats{{RecoveredRecords: 9, RecoveredTorn: true}, {RecoveredRecords: 9}} {
		r := buildWALSharded(t, base, dir)
		st := r.WALStats()
		r.Close()
		if st.RecoveredRecords != want.RecoveredRecords || st.RecoveredTorn != want.RecoveredTorn {
			t.Fatalf("restart recovered %d records, torn %v; want %d, torn %v",
				st.RecoveredRecords, st.RecoveredTorn, want.RecoveredRecords, want.RecoveredTorn)
		}
	}
}

// TestWALReplayFailureReleasesRebuiltShards: a log that overflows one
// shard's buffer rebuilds that shard while it replays, so a replay that then
// fails must unwind through the live snapshot and the retired stores — the
// shard array built before the replay no longer names the rebuilt shard's
// page file.
func TestWALReplayFailureReleasesRebuiltShards(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts open descriptors through /proc/self/fd")
	}
	root, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	walDir, pages := filepath.Join(root, "wal"), filepath.Join(root, "pages")
	base := walTestPoints(500, 31)
	disk := []ShardedOption{WithShardedStorage(pages, 16), WithCompactThreshold(64)}
	s := buildWALSharded(t, base, walDir, disk...)
	for i := 0; i < 64; i++ {
		s.Insert(base[0]) // duplicates all route to the shard that owns base[0]
	}
	if s.Rebuilds() != 1 {
		t.Fatalf("%d rebuilds after overflowing one shard's buffer, want 1", s.Rebuilds())
	}
	s.Close()

	// One record the log accepts (its CRC is valid) and the replay cannot
	// decode.
	w, err := wal.Open(wal.Options{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = NewSharded(base, nil, append(walShardedOptions(walDir), disk...)...)
	if err == nil || !strings.Contains(err.Error(), "replaying wal") {
		t.Fatalf("NewSharded over an undecodable record: err = %v, want a replay error", err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, pages) {
			t.Errorf("failed replay left %s open", target)
		}
	}
}

func TestWALSnapshotPlusTailRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	base := walTestPoints(500, 3)
	s := buildWALSharded(t, base, dir)
	rng := rand.New(rand.NewSource(4))
	write := func(n int) int {
		logged := 0
		for i := 0; i < n; i++ {
			if i%4 == 3 {
				if s.Delete(base[rng.Intn(len(base))]) {
					logged++
				}
			} else {
				s.Insert(Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
				logged++
			}
		}
		return logged
	}
	write(120)
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	tail := write(80) // the tail only the WAL holds
	wantSum, wantN := s.ContentChecksum()
	s.Close()

	r, err := LoadSharded(bytes.NewReader(snap.Bytes()), WithoutAutoRebuild(),
		WithIndexOptions(WithLeafSize(64), WithSeed(7), WithExactCounts()),
		WithWAL(dir), WithWALSync("group"))
	if err != nil {
		t.Fatalf("LoadSharded: %v", err)
	}
	defer r.Close()
	rst := r.WALStats()
	if rst.RecoveredRecords != tail {
		t.Fatalf("recovered %d records past the snapshot cut, want %d", rst.RecoveredRecords, tail)
	}
	gotSum, gotN := r.ContentChecksum()
	if gotSum != wantSum || gotN != wantN {
		t.Fatalf("snapshot+tail recovery differs: checksum %x/%d points, want %x/%d", gotSum, gotN, wantSum, wantN)
	}
}

func TestWALTruncateAfterSave(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	base := walTestPoints(300, 5)
	// Tiny segments so the checkpoint has whole segments to drop.
	s := buildWALSharded(t, base, dir, WithWALSegmentBytes(256))
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		s.Insert(Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	removed, err := s.TruncateWAL()
	if err != nil {
		t.Fatalf("TruncateWAL: %v", err)
	}
	if removed == 0 {
		t.Fatalf("TruncateWAL removed nothing despite 200 records in 256-byte segments")
	}
	// Writes after the checkpoint land in the surviving tail.
	for i := 0; i < 50; i++ {
		s.Insert(Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	wantSum, wantN := s.ContentChecksum()
	s.Close()

	r, err := LoadSharded(bytes.NewReader(snap.Bytes()), WithoutAutoRebuild(),
		WithIndexOptions(WithLeafSize(64), WithSeed(7), WithExactCounts()),
		WithWAL(dir), WithWALSync("group"))
	if err != nil {
		t.Fatalf("LoadSharded after truncate: %v", err)
	}
	defer r.Close()
	if rst := r.WALStats(); rst.RecoveredRecords != 50 {
		t.Fatalf("recovered %d records after truncate, want 50", rst.RecoveredRecords)
	}
	gotSum, gotN := r.ContentChecksum()
	if gotSum != wantSum || gotN != wantN {
		t.Fatalf("post-truncate recovery differs: checksum %x/%d points, want %x/%d", gotSum, gotN, wantSum, wantN)
	}
}

func TestWALDisabledStatsAndTruncate(t *testing.T) {
	s, err := NewSharded(walTestPoints(100, 7), nil, WithShards(2), WithoutAutoRebuild())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.WALStats(); st.Enabled {
		t.Fatal("WALStats claims a WAL without WithWAL")
	}
	if err := s.WALErr(); err != nil {
		t.Fatalf("WALErr without WAL: %v", err)
	}
	if n, err := s.TruncateWAL(); n != 0 || err != nil {
		t.Fatalf("TruncateWAL without WAL: %d, %v", n, err)
	}
}

func TestWALBadSyncPolicyFailsConstruction(t *testing.T) {
	_, err := NewSharded(walTestPoints(50, 8), nil, WithShards(2), WithoutAutoRebuild(),
		WithWAL(t.TempDir()), WithWALSync("flush-sometimes"))
	if err == nil {
		t.Fatal("unknown wal sync policy accepted")
	}
}

func TestWALSyncPolicies(t *testing.T) {
	for _, policy := range []string{"group", "always", "none"} {
		t.Run(policy, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			base := walTestPoints(200, 9)
			s := buildWALSharded(t, base, dir, WithWALSync(policy))
			rng := rand.New(rand.NewSource(10))
			for i := 0; i < 100; i++ {
				s.Insert(Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
			}
			wantSum, wantN := s.ContentChecksum()
			st := s.WALStats()
			if st.Sync != policy {
				t.Fatalf("WALStats.Sync = %q, want %q", st.Sync, policy)
			}
			if policy == "always" && st.Fsyncs < 100 {
				t.Fatalf("always policy fsynced %d times for 100 writes", st.Fsyncs)
			}
			s.Close()
			r := buildWALSharded(t, base, dir, WithWALSync(policy))
			defer r.Close()
			gotSum, gotN := r.ContentChecksum()
			if gotSum != wantSum || gotN != wantN {
				t.Fatalf("recovery under %q differs: %x/%d vs %x/%d", policy, gotSum, gotN, wantSum, wantN)
			}
		})
	}
}

func TestMultisetChecksumOrderIndependent(t *testing.T) {
	pts := walTestPoints(64, 11)
	pts = append(pts, pts[0], pts[1]) // duplicates count
	shuffled := append([]Point(nil), pts...)
	rand.New(rand.NewSource(12)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if MultisetChecksum(pts) != MultisetChecksum(shuffled) {
		t.Fatal("MultisetChecksum is order-dependent")
	}
	if MultisetChecksum(pts) == MultisetChecksum(pts[:len(pts)-1]) {
		t.Fatal("MultisetChecksum ignores a dropped duplicate")
	}
}
