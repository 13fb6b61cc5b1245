package wazi

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The disk-backed concurrency soak: a Sharded index on page files under
// simultaneous readers, writers, drift-triggered background rebuilds, and
// snapshot saves — the full serving workload racing the storage engine.
// CI runs this package under -race, so the soak doubles as a data-race
// probe over the block cache, the retirement path, and attached saves.

// TestShardedDiskSoak is the always-on variant, sized to stay well under a
// second of wall clock beyond index construction.
func TestShardedDiskSoak(t *testing.T) {
	runShardedDiskSoak(t, 800*time.Millisecond)
}

// TestShardedDiskSoakLong runs the same soak several times longer; skipped
// under -short so quick iterations stay quick.
func TestShardedDiskSoakLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak skipped in -short mode")
	}
	runShardedDiskSoak(t, 4*time.Second)
}

func runShardedDiskSoak(t *testing.T, dur time.Duration) {
	t.Helper()
	dir := t.TempDir()
	pts, qs := storageTestData(6000, 41)
	s, err := NewSharded(pts, qs[:100],
		WithShards(4),
		WithRebuildInterval(40*time.Millisecond),
		WithCompactThreshold(512),
		WithDriftWindow(256),
		WithIndexOptions(WithLeafSize(64), WithSeed(42)),
		WithShardedStorage(dir, 64))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, writes, saves atomic.Int64

	// Readers: range, count, point, and kNN traffic whose hotspot shifts
	// halfway through the soak, pushing the drift advisors over threshold.
	shifted := time.Now().Add(dur / 2)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				cx, cy := 0.2+rng.Float64()*0.1, 0.2+rng.Float64()*0.1
				if time.Now().After(shifted) {
					cx, cy = 0.8+rng.Float64()*0.1, 0.8+rng.Float64()*0.1
				}
				q := Rect{MinX: cx - 0.05, MinY: cy - 0.05, MaxX: cx + 0.05, MaxY: cy + 0.05}
				switch rng.Intn(4) {
				case 0:
					s.RangeQuery(q)
				case 1:
					s.RangeCount(q)
				case 2:
					s.PointQuery(pts[rng.Intn(len(pts))])
				default:
					s.KNN(Point{X: cx, Y: cy}, 8)
				}
				reads.Add(1)
			}
		}(int64(100 + r))
	}

	// Writers: each owns a disjoint key range, inserting fresh points and
	// deleting a fraction of its own inserts, so the expected final
	// contents are computable without cross-writer coordination.
	type writerState struct {
		mu   sync.Mutex
		live []Point
	}
	writers := make([]*writerState, 2)
	for w := range writers {
		ws := &writerState{}
		writers[w] = ws
		wg.Add(1)
		go func(w int, ws *writerState) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Writer w's points live in x ∈ [2+w, 2.9+w): outside the
				// dataset's unit square, so they collide with nothing.
				if len(ws.live) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(ws.live))
					p := ws.live[i]
					if !s.Delete(p) {
						t.Errorf("writer %d: Delete(%v) of a live point failed", w, p)
						return
					}
					ws.mu.Lock()
					ws.live[i] = ws.live[len(ws.live)-1]
					ws.live = ws.live[:len(ws.live)-1]
					ws.mu.Unlock()
				} else {
					p := Point{X: 2 + float64(w) + rng.Float64()*0.9, Y: rng.Float64()}
					s.Insert(p)
					ws.mu.Lock()
					ws.live = append(ws.live, p)
					ws.mu.Unlock()
				}
				writes.Add(1)
			}
		}(w, ws)
	}

	// Saver: attached snapshots racing rebuilds and writes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(75 * time.Millisecond):
			}
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Errorf("concurrent Save: %v", err)
				return
			}
			saves.Add(1)
		}
	}()

	time.Sleep(dur)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("soak: %d reads, %d writes, %d saves, %d rebuilds",
		reads.Load(), writes.Load(), saves.Load(), s.Rebuilds())
	if saves.Load() == 0 || writes.Load() == 0 || reads.Load() == 0 {
		t.Fatal("soak exercised nothing")
	}
	if s.Rebuilds() == 0 {
		t.Error("soak triggered no background rebuilds; tune thresholds")
	}

	// Quiescent verification: the index holds exactly the initial data
	// plus every writer's surviving inserts.
	want := len(pts)
	for _, ws := range writers {
		want += len(ws.live)
	}
	if got := s.Len(); got != want {
		t.Fatalf("post-soak Len = %d, want %d", got, want)
	}
	for _, ws := range writers {
		for i := 0; i < len(ws.live); i += 7 {
			if !s.PointQuery(ws.live[i]) {
				t.Fatalf("surviving insert %v not found after soak", ws.live[i])
			}
		}
	}

	// A final snapshot must warm-start to identical contents.
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := LoadSharded(bytes.NewReader(snap.Bytes()), WithShardedStorage(dir, 64), WithoutAutoRebuild())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != want {
		t.Fatalf("warm-started Len = %d, want %d", re.Len(), want)
	}
}

// TestShardedRepartitionSoak races live plan migrations against everything
// else the serving layer does: mixed reads and writes, drift-triggered
// background rebuilds, attached snapshot saves — all on the disk backend,
// under -race in CI. The proof obligation is lost-write freedom: after the
// storm quiesces, a full scan of the index must checksum to exactly the
// initial data plus every surviving insert, whatever interleaving of
// migrations, rebuilds, and compactions occurred.
func TestShardedRepartitionSoak(t *testing.T) {
	dur := 1200 * time.Millisecond
	if testing.Short() {
		dur = 500 * time.Millisecond
	}
	dir := t.TempDir()
	pts, qs := storageTestData(6000, 61)
	s, err := NewSharded(pts, qs[:100],
		WithShards(6),
		WithRebuildInterval(40*time.Millisecond),
		WithCompactThreshold(512),
		WithDriftWindow(256),
		WithRepartitionMinLoad(512),
		WithRepartitionMaxSkew(2.0),
		WithIndexOptions(WithLeafSize(64), WithSeed(62)),
		WithShardedStorage(dir, 64))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, writes, saves atomic.Int64

	// Readers with a mid-soak hotspot shift: the drifted tail skews the
	// per-shard load vector, giving both the drift advisors and the
	// repartition advisor real work.
	shifted := time.Now().Add(dur / 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				cx, cy := 0.2+rng.Float64()*0.1, 0.2+rng.Float64()*0.1
				if time.Now().After(shifted) {
					cx, cy = 0.8+rng.Float64()*0.1, 0.8+rng.Float64()*0.1
				}
				q := Rect{MinX: cx - 0.05, MinY: cy - 0.05, MaxX: cx + 0.05, MaxY: cy + 0.05}
				switch rng.Intn(4) {
				case 0:
					s.RangeQuery(q)
				case 1:
					s.RangeCount(q)
				case 2:
					s.PointQuery(pts[rng.Intn(len(pts))])
				default:
					s.KNN(Point{X: cx, Y: cy}, 8)
				}
				reads.Add(1)
			}
		}(int64(300 + r))
	}

	// Writers own disjoint key ranges outside the dataset's unit square, so
	// the expected final multiset is computable without coordination.
	type writerState struct {
		mu   sync.Mutex
		live []Point
	}
	writers := make([]*writerState, 2)
	for w := range writers {
		ws := &writerState{}
		writers[w] = ws
		wg.Add(1)
		go func(w int, ws *writerState) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if len(ws.live) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(ws.live))
					p := ws.live[i]
					if !s.Delete(p) {
						t.Errorf("writer %d: Delete(%v) of a live point failed", w, p)
						return
					}
					ws.mu.Lock()
					ws.live[i] = ws.live[len(ws.live)-1]
					ws.live = ws.live[:len(ws.live)-1]
					ws.mu.Unlock()
				} else {
					p := Point{X: 2 + float64(w) + rng.Float64()*0.9, Y: rng.Float64()}
					s.Insert(p)
					ws.mu.Lock()
					ws.live = append(ws.live, p)
					ws.mu.Unlock()
				}
				writes.Add(1)
			}
		}(w, ws)
	}

	// Saver: attached snapshots racing migrations, rebuilds, and writes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(90 * time.Millisecond):
			}
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Errorf("concurrent Save: %v", err)
				return
			}
			saves.Add(1)
		}
	}()

	// Repartitioner: forced migrations fired concurrently with everything
	// above (the advisor-gated path runs in the background loop as well).
	// The cadence leaves gaps between attempts — a Repartition call blocks
	// rebuilds for its whole scan, and the soak must exercise migrations
	// RACING rebuilds, not migrations starving them.
	var reparts atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(120 * time.Millisecond):
			}
			if s.Repartition() {
				reparts.Add(1)
			}
		}
	}()

	time.Sleep(dur)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if reparts.Load() == 0 {
		// Every concurrent attempt lost the race against a rebuild; migrate
		// once post-storm so the lost-write check still covers a migration.
		// The background loop is still running, so a single attempt can lose
		// to one last in-flight rebuild — retry briefly.
		migrated := false
		for try := 0; try < 40 && !migrated; try++ {
			migrated = s.Repartition() || s.Repartitions() > 0
			if !migrated {
				time.Sleep(25 * time.Millisecond)
			}
		}
		if !migrated {
			t.Fatal("no repartition completed, concurrently or quiesced")
		}
	}
	t.Logf("soak: %d reads, %d writes, %d saves, %d rebuilds, %d repartitions (epoch %d)",
		reads.Load(), writes.Load(), saves.Load(), s.Rebuilds(), s.Repartitions(), s.PlanEpoch())
	if saves.Load() == 0 || writes.Load() == 0 || reads.Load() == 0 {
		t.Fatal("soak exercised nothing")
	}

	// Lost-write freedom, proven by a full-scan checksum: the multiset
	// checksum of everything the index serves must equal the checksum of
	// the initial data plus every writer's surviving inserts.
	expected := append([]Point{}, pts...)
	for _, ws := range writers {
		expected = append(expected, ws.live...)
	}
	scan := s.RangeQuery(Rect{MinX: -100, MinY: -100, MaxX: 100, MaxY: 100})
	if got, want := MultisetChecksum(scan), MultisetChecksum(expected); got != want || len(scan) != len(expected) {
		reportMultisetDiff(t, scan, expected)
		t.Fatalf("post-soak full scan checksum %x over %d points, want %x over %d — writes lost or duplicated",
			got, len(scan), want, len(expected))
	}

	// And the migrated state must survive a save/warm-start cycle intact.
	// The background loop is still running and may migrate once more, so
	// take the snapshot again if the epoch moved while it was written.
	var snap bytes.Buffer
	epoch := -1
	for epoch != s.PlanEpoch() {
		epoch = s.PlanEpoch()
		snap.Reset()
		if err := s.Save(&snap); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	re, err := LoadSharded(bytes.NewReader(snap.Bytes()), WithShardedStorage(dir, 64), WithoutAutoRebuild())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(expected) || re.PlanEpoch() != epoch {
		t.Fatalf("warm start: Len %d epoch %d, want %d / %d", re.Len(), re.PlanEpoch(), len(expected), epoch)
	}
}

// reportMultisetDiff logs which points differ between a scan and the
// expected contents, capped to keep failures readable.
func reportMultisetDiff(t *testing.T, scan, expected []Point) {
	t.Helper()
	counts := make(map[Point]int, len(expected))
	for _, p := range expected {
		counts[p]++
	}
	for _, p := range scan {
		counts[p]--
	}
	logged := 0
	for p, c := range counts {
		if c == 0 {
			continue
		}
		if logged == 20 {
			t.Log("... further diffs elided")
			break
		}
		if c > 0 {
			t.Logf("missing from scan: %v (x%d)", p, c)
		} else {
			t.Logf("unexpected in scan: %v (x%d)", p, -c)
		}
		logged++
	}
}
