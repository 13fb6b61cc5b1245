package wazi

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"github.com/wazi-index/wazi/internal/indextest"
)

// The fault-injection harness: indextest.CrashFS kills the WAL's write
// path at every counted IO boundary (segment create, record append, fsync,
// segment remove, directory sync) in turn, under both the process-crash
// and power-loss models, and recovery must restore exactly the
// acknowledged writes — no loss, and no ghosts beyond the single
// in-flight operation a crash may legitimately persist without
// acknowledging.

type crashOp struct {
	p   Point
	del bool
}

// crashOpsFor mixes inserts of fresh points with deletes of base points.
func crashOpsFor(base []Point, n int, seed int64) []crashOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]crashOp, n)
	for i := range ops {
		if i%4 == 3 {
			ops[i] = crashOp{p: base[rng.Intn(len(base))], del: true}
		} else {
			ops[i] = crashOp{p: Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}}
		}
	}
	return ops
}

func countsOf(pts []Point) map[Point]int {
	m := make(map[Point]int, len(pts))
	for _, p := range pts {
		m[p]++
	}
	return m
}

// applyOpToCounts mirrors Sharded's write semantics on a plain multiset:
// a delete of an absent point is a no-op (and is never logged).
func applyOpToCounts(m map[Point]int, op crashOp) {
	if op.del {
		if m[op.p] > 0 {
			m[op.p]--
		}
	} else {
		m[op.p]++
	}
}

// shardedCounts materializes the full contents as a multiset.
func shardedCounts(s *Sharded) map[Point]int {
	m := make(map[Point]int)
	for _, ss := range s.snap.Load().shards {
		for _, p := range materialize(ss) {
			m[p]++
		}
	}
	return m
}

func countsEqual(a, b map[Point]int) bool {
	for p, n := range a {
		if n != 0 && b[p] != n {
			return false
		}
	}
	for p, n := range b {
		if n != 0 && a[p] != n {
			return false
		}
	}
	return true
}

// crashBuildOpts is the shared configuration of crashed and recovered
// instances; tiny segments force rotation and truncation kill points into
// the sweep.
func crashBuildOpts(dir, policy string, extra ...ShardedOption) []ShardedOption {
	return append([]ShardedOption{
		WithShards(4), WithoutAutoRebuild(),
		WithIndexOptions(WithLeafSize(64), WithSeed(7), WithExactCounts()),
		WithWAL(dir), WithWALSync(policy), WithWALSegmentBytes(384),
	}, extra...)
}

// runCrashSweep kills the write path at IO op k for every k until a run
// completes crash-free, asserting after each crash that recovery restores
// the acked prefix. A checkpoint (Save + TruncateWAL) midway through puts
// truncation's Remove/SyncDir boundaries inside the sweep and proves
// recovery from snapshot + truncated tail.
func runCrashSweep(t *testing.T, powerLoss, tear bool, policy string) {
	base := walTestPoints(300, 21)
	ops := crashOpsFor(base, 50, 22)
	const checkpointAt = 25
	for crashAt := 0; ; crashAt++ {
		if crashAt > 5000 {
			t.Fatal("crash sweep did not terminate: clean run never reached")
		}
		dir := filepath.Join(t.TempDir(), "wal")
		cfs := indextest.NewCrashFS(crashAt)
		cfs.PowerLoss, cfs.TearWrites = powerLoss, tear
		var snapBuf *bytes.Buffer
		applied := 0
		s, err := NewSharded(base, nil, crashBuildOpts(dir, policy, withWALFS(cfs))...)
		if err == nil {
			for i := range ops {
				if i == checkpointAt && s.WALErr() == nil {
					var buf bytes.Buffer
					if err := s.Save(&buf); err != nil {
						t.Fatalf("crashAt=%d: Save: %v", crashAt, err)
					}
					// The harness holds the snapshot in memory, which
					// models a durably persisted snapshot — so truncating
					// here honors the Save-truncation invariant even
					// though truncation itself may crash partway.
					s.TruncateWAL()
					snapBuf = &buf
				}
				if ops[i].del {
					s.Delete(ops[i].p)
				} else {
					s.Insert(ops[i].p)
				}
				if s.WALErr() != nil {
					break
				}
				applied++
			}
			s.Close()
		}
		crashed := cfs.Crashed()

		// Recover with the real filesystem: from the checkpoint snapshot
		// plus the log tail when one was taken, else cold rebuild plus
		// full replay.
		var r *Sharded
		var rerr error
		if snapBuf != nil {
			r, rerr = LoadSharded(bytes.NewReader(snapBuf.Bytes()), crashBuildOpts(dir, policy)...)
		} else {
			r, rerr = NewSharded(base, nil, crashBuildOpts(dir, policy)...)
		}
		if rerr != nil {
			t.Fatalf("crashAt=%d (applied %d): recovery failed: %v", crashAt, applied, rerr)
		}

		expected := countsOf(base)
		for _, op := range ops[:applied] {
			applyOpToCounts(expected, op)
		}
		got := shardedCounts(r)
		ok := countsEqual(got, expected)
		if !ok && applied < len(ops) {
			// The crash may have persisted the in-flight op's record
			// without acknowledging it — allowed; anything else is not.
			applyOpToCounts(expected, ops[applied])
			ok = countsEqual(got, expected)
		}
		r.Close()
		if !ok {
			t.Fatalf("crashAt=%d (applied %d, crashed %v): recovered contents are neither the acked prefix nor the prefix plus the in-flight op",
				crashAt, applied, crashed)
		}
		if !crashed {
			// crashAt moved past every IO op of a full run: the sweep hit
			// every kill point.
			if applied != len(ops) {
				t.Fatalf("clean run applied %d/%d ops", applied, len(ops))
			}
			return
		}
	}
}

func TestShardedCrashRecovery(t *testing.T) {
	t.Run("process-crash-torn-write/group", func(t *testing.T) {
		runCrashSweep(t, false, true, "group")
	})
	t.Run("power-loss-torn-write/group", func(t *testing.T) {
		runCrashSweep(t, true, true, "group")
	})
	t.Run("power-loss-clean-cut/always", func(t *testing.T) {
		runCrashSweep(t, true, false, "always")
	})
	// none acknowledges a write once it is stored in the mapped segment:
	// no fsync covers it, so only the page cache carries it past the crash.
	t.Run("process-crash-torn-write/none", func(t *testing.T) {
		runCrashSweep(t, false, true, "none")
	})
}

// TestShardedCrashRecoveryConcurrent crashes under concurrent writers:
// every write acknowledged to any goroutine must survive, and nothing may
// appear beyond each goroutine's single possible in-flight write. Run
// under -race in CI, this also proves the WAL ack path race-clean.
func TestShardedCrashRecoveryConcurrent(t *testing.T) {
	base := walTestPoints(300, 31)
	const writers, perWriter = 4, 20
	for _, crashAt := range []int{3, 17, 60, 120} {
		t.Run(fmt.Sprintf("crashAt=%d", crashAt), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			cfs := indextest.NewCrashFS(crashAt)
			cfs.PowerLoss, cfs.TearWrites = true, true
			s, err := NewSharded(base, nil, crashBuildOpts(dir, "group", withWALFS(cfs))...)
			attempted := make([][]Point, writers)
			acked := make([][]Point, writers)
			if err == nil {
				var wg sync.WaitGroup
				for g := 0; g < writers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(100 + g)))
						for i := 0; i < perWriter; i++ {
							p := Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
							attempted[g] = append(attempted[g], p)
							s.Insert(p)
							if s.WALErr() != nil {
								return
							}
							acked[g] = append(acked[g], p)
						}
					}(g)
				}
				wg.Wait()
				s.Close()
			}

			r, rerr := NewSharded(base, nil, crashBuildOpts(dir, "group")...)
			if rerr != nil {
				t.Fatalf("recovery failed: %v", rerr)
			}
			defer r.Close()
			got := shardedCounts(r)
			want := countsOf(base)
			for g := range acked {
				for _, p := range acked[g] {
					want[p]++
				}
			}
			inflight := make(map[Point]int)
			for g := range attempted {
				for _, p := range attempted[g][len(acked[g]):] {
					inflight[p]++
				}
			}
			for p, n := range want {
				if got[p] < n {
					t.Fatalf("lost acked write %v: recovered %d, want at least %d", p, got[p], n)
				}
			}
			for p, n := range got {
				if extra := n - want[p]; extra > 0 {
					if inflight[p] < extra {
						t.Fatalf("ghost write %v: recovered %d, acked %d, in-flight %d", p, n, want[p], inflight[p])
					}
				}
			}
		})
	}
}
