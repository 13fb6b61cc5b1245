package wazi

import (
	"bytes"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/index"
)

// The shard delta (sharded_delta.go) against brute force. Every Sharded
// here runs with compaction out of reach, so each write stays in the sorted
// runs and every read goes through them.

// deltaSharded builds a Sharded over pts whose writes never compact.
func deltaSharded(t testing.TB, pts []Point, shards int) *Sharded {
	t.Helper()
	s, err := NewSharded(pts, nil, WithShards(shards), WithoutAutoRebuild(),
		WithCompactThreshold(math.MaxInt32), WithIndexOptions(WithLeafSize(32), WithSeed(3)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// deltaBase is an indexed point set holding coincident copies and both
// zeros.
func deltaBase(n int, seed int64) []Point {
	pts := fuzzPoints(n, seed)
	negZero := math.Copysign(0, -1)
	pts = append(pts, pts[:n/10]...)
	return append(pts, Point{X: 0, Y: 0.1}, Point{X: negZero, Y: 0.1}, Point{X: 0.1, Y: negZero})
}

// deltaPool is what the writes draw from: coincident points, points that
// share an X, both zeros, both infinities and NaN, points outside the base's
// bounds, plus indexed points, so that deletes tombstone some copies and
// cancel buffered inserts of others.
// (0.1, +0) deletes deltaBase's (0.1, −0): a tombstone whose bits differ
// from the copy it removes.
func deltaPool(base []Point) []Point {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	pool := []Point{
		{X: 0.5, Y: 0.5}, {X: 0.5, Y: 0.25}, {X: 0.5, Y: 0.75},
		{X: 0, Y: 0.25}, {X: negZero, Y: 0.25}, {X: 0.25, Y: 0}, {X: 0.25, Y: negZero},
		{X: 0.1, Y: 0}, {X: negZero, Y: 0.1},
		{X: inf, Y: 0.3}, {X: -inf, Y: 0.7}, {X: 0.2, Y: inf}, {X: 0.6, Y: -inf},
		{X: nan, Y: 0.4}, {X: 0.6, Y: nan}, {X: nan, Y: nan},
		{X: 1.5, Y: 0.5}, {X: -0.25, Y: 1.25},
	}
	return append(pool, base[:48]...)
}

// deltaRects are the rectangles every check reads: the whole plane, ones
// whose edges sit on the zeros, the coincident point and the infinities,
// ones outside the base's bounds, and a few ordinary ones.
func deltaRects(rng *rand.Rand, n int) []Rect {
	inf := math.Inf(1)
	rs := []Rect{
		everywhere,
		{MinX: 0, MinY: 0, MaxX: 0.3, MaxY: 0.3},
		{MinX: 0, MinY: 0.1, MaxX: 0, MaxY: 0.3},
		{MinX: 0.5, MinY: 0.25, MaxX: 0.5, MaxY: 0.5},
		{MinX: 0.1, MinY: 0.2, MaxX: inf, MaxY: 0.4},
		{MinX: -inf, MinY: 0.6, MaxX: 0.9, MaxY: inf},
		{MinX: 1.2, MinY: 0, MaxX: 2, MaxY: 1}, {MinX: -1, MinY: 1.1, MaxX: 0, MaxY: 2},
	}
	for range n {
		x, y, w, h := rng.Float64(), rng.Float64(), rng.Float64()*0.4, rng.Float64()*0.4
		rs = append(rs, Rect{MinX: x - w, MinY: y - h, MaxX: x + w, MaxY: y + h})
	}
	return rs
}

// canonical returns pts with −0 read as +0, so that point values equal
// under == have equal bits.
func canonical(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point{X: p.X + 0, Y: p.Y + 0}
	}
	return out
}

// sameMultiset reports whether a and b hold the same points, counting
// copies, with == as the equality.
func sameMultiset(a, b []Point) bool {
	return len(a) == len(b) && MultisetChecksum(canonical(a)) == MultisetChecksum(canonical(b))
}

// bruteKNN is the k nearest finite points of ref to q.
func bruteKNN(ref *index.Brute, q Point, k int) []Point {
	var pts []Point
	for _, p := range ref.RangeQuery(everywhere) {
		if p.Finite() {
			pts = append(pts, p)
		}
	}
	geom.NearestK(pts, k, q)
	return pts[:min(k, len(pts))]
}

// deltaWrite applies n writes drawn from pool to s and ref alike, three in
// five inserts and the rest deletes.
func deltaWrite(t testing.TB, s *Sharded, ref *index.Brute, pool []Point, rng *rand.Rand, n int) {
	t.Helper()
	for range n {
		p := pool[rng.Intn(len(pool))]
		if rng.Intn(5) < 3 {
			s.Insert(p)
			ref.Insert(p)
		} else if got, want := s.Delete(p), ref.Delete(p); got != want {
			t.Fatalf("Delete(%v) = %v, brute force %v", p, got, want)
		}
	}
}

// checkDelta holds s to ref over rects, the point queries of probes, Len,
// and kNN around finite probes.
func checkDelta(t testing.TB, s *Sharded, ref *index.Brute, rects []Rect, probes []Point, ctx string) {
	t.Helper()
	if got, want := s.Len(), ref.Len(); got != want {
		t.Fatalf("%s: Len %d, brute force %d", ctx, got, want)
	}
	for _, r := range rects {
		got, want := s.RangeQuery(r), ref.RangeQuery(r)
		if !sameMultiset(got, want) {
			t.Fatalf("%s: RangeQuery(%v) returned %d points, brute force %d", ctx, r, len(got), len(want))
		}
		if n := s.RangeCount(r); n != len(want) {
			t.Fatalf("%s: RangeCount(%v) = %d, brute force %d", ctx, r, n, len(want))
		}
	}
	for _, p := range probes {
		if got, want := s.PointQuery(p), ref.PointQuery(p); got != want {
			t.Fatalf("%s: PointQuery(%v) = %v, brute force %v", ctx, p, got, want)
		}
		if !p.Finite() {
			continue
		}
		got, want := canonical(s.KNN(p, 5)), canonical(bruteKNN(ref, p, 5))
		if !slices.Equal(got, want) {
			t.Fatalf("%s: KNN(%v, 5) = %v, brute force %v", ctx, p, got, want)
		}
	}
}

// TestShardDeltaMatchesBrute runs a seeded write sequence over coincident
// points, both zeros, the infinities and NaN, checking every read against
// brute force after every write: buffered inserts, tombstones over
// coincident indexed copies, and buffered deletes that cancel inserts, each
// at every stage of a run's sorted prefix and tail.
func TestShardDeltaMatchesBrute(t *testing.T) {
	base := deltaBase(1200, 11)
	s := deltaSharded(t, base, 4)
	ref := index.NewBrute(base)
	pool := deltaPool(base)
	rng := rand.New(rand.NewSource(12))
	rects := deltaRects(rng, 3)
	for step := range 700 {
		p := pool[rng.Intn(len(pool))]
		if rng.Intn(4) == 0 {
			p = Point{X: rng.Float64(), Y: rng.Float64()}
			pool = append(pool, p)
		}
		if rng.Intn(5) < 3 {
			s.Insert(p)
			ref.Insert(p)
		} else if got, want := s.Delete(p), ref.Delete(p); got != want {
			t.Fatalf("step %d: Delete(%v) = %v, brute force %v", step, p, got, want)
		}
		checkDelta(t, s, ref, rects, []Point{p, pool[rng.Intn(len(pool))], {X: rng.Float64(), Y: rng.Float64()}},
			"step "+strconv.Itoa(step))
	}
	inserts, tombstones := 0, 0
	for _, ss := range s.snap.Load().shards {
		inserts += ss.extra.size()
		tombstones += ss.dead.size()
	}
	if inserts < 200 || tombstones < 20 {
		t.Fatalf("the sequence left %d buffered inserts and %d tombstones; too few to cover the runs", inserts, tombstones)
	}
}

// FuzzShardDelta is an op-byte state machine over one Sharded and a brute
// force copy: each byte inserts or deletes a pool point, captures the
// point's shard for a rebuild, or rebuilds, which folds the delta into a
// copy of the index or, when the byte's bit 5 is set, relearns the index.
// A rebuild runs from the held capture if there is one, rebasing the
// writes since it, and otherwise from the shard's current state. Every read
// is checked after every op.
func FuzzShardDelta(f *testing.F) {
	f.Add([]byte{0, 8, 16, 24, 1, 9, 4, 12, 20, 28, 7, 0, 8, 5, 13})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	f.Add([]byte{5, 13, 21, 29, 37, 45, 53, 61, 69, 77, 85, 93, 101, 109, 117, 125, 133, 141, 7})
	f.Add([]byte{0, 8, 104, 72, 4, 31, 0, 16, 104, 80, 4, 12, 60, 28, 7, 0, 4, 60})
	base := deltaBase(300, 21)
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := deltaSharded(t, base, 2)
		ref := index.NewBrute(base)
		pool := deltaPool(base)
		rects := deltaRects(rand.New(rand.NewSource(22)), 2)
		var held *shardedSnapshot
		heldShard := 0
		for i, op := range ops[:min(len(ops), 128)] {
			p := pool[int(op>>3)%len(pool)]
			relearn := op>>5&1 == 1
			switch {
			case op%8 < 4:
				s.Insert(p)
				ref.Insert(p)
			case op%8 < 7:
				if got, want := s.Delete(p), ref.Delete(p); got != want {
					t.Fatalf("op %d: Delete(%v) = %v, brute force %v", i, p, got, want)
				}
			case op>>3%4 == 3:
				if held == nil {
					heldShard = s.ShardOf(p)
					held, _ = s.captureShard(heldShard)
				}
			case held != nil:
				if !s.rebuildFrom(held, heldShard, relearn) {
					t.Fatalf("op %d: the rebuild from the held capture did not swap", i)
				}
				held = nil
				checkRebased(t, s, "op "+strconv.Itoa(i))
			default:
				s.rebuildShard(s.ShardOf(p), relearn)
				checkRebased(t, s, "op "+strconv.Itoa(i))
			}
			checkDelta(t, s, ref, rects, []Point{p}, "op "+strconv.Itoa(i))
		}
	})
}

// checkRebased holds every shard of s to the delta's invariants: each
// tombstoned value has at least as many copies in the shard's index, and
// live counts exactly the points the shard serves.
func checkRebased(t testing.TB, s *Sharded, ctx string) {
	t.Helper()
	for i, ss := range s.snap.Load().shards {
		for _, p := range ss.dead.pts {
			if c, _ := ss.dead.count(p); ss.idx == nil || c > ss.idx.RangeCount(pointRect(p)) {
				t.Fatalf("%s: shard %d tombstones %d copies of %v, more than its index holds", ctx, i, c, p)
			}
		}
		if live, n := ss.live(), len(materialize(ss)); live != n {
			t.Fatalf("%s: shard %d counts %d live points and serves %d", ctx, i, live, n)
		}
	}
}

// TestShardRebase captures each shard in turn, writes from the pool while
// the capture is held, rebuilds the shard from the capture (folding on even
// shards, relearning on odd ones), and checks
// reads against brute force and the rebased delta's invariants. The writes
// cover coincident copies, both zeros, the infinities and NaN, buffered
// inserts of the capture cancelled after it, and tombstones of indexed
// copies, so every rebuild has a delta to rebase.
func TestShardRebase(t *testing.T) {
	base := deltaBase(1200, 71)
	s := deltaSharded(t, base, 4)
	ref := index.NewBrute(base)
	pool := deltaPool(base)
	rng := rand.New(rand.NewSource(72))
	rects := deltaRects(rng, 3)
	for i := range 4 {
		deltaWrite(t, s, ref, pool, rng, 150)
		snap, ok := s.captureShard(i)
		if !ok {
			t.Fatalf("shard %d: capture refused", i)
		}
		deltaWrite(t, s, ref, pool, rng, 300)
		if ss := s.snap.Load().shards[i]; ss == snap.shards[i] {
			t.Fatalf("shard %d: no write landed while the capture was held", i)
		}
		if !s.rebuildFrom(snap, i, i%2 == 1) {
			t.Fatalf("shard %d: the rebuild did not swap", i)
		}
		ctx := "shard " + strconv.Itoa(i)
		if s.snap.Load().shards[i].backlog() == 0 {
			t.Fatalf("%s: the rebuild rebased nothing", ctx)
		}
		checkRebased(t, s, ctx)
		checkDelta(t, s, ref, rects, pool, ctx)
	}
}

// TestShardedNonFiniteNeverIndexed: a point with an infinite or NaN
// coordinate stays in its shard's insert run through a workload-aware
// rebuild and a cold build, so the learned index over the finite points
// keeps answering all of them.
func TestShardedNonFiniteNeverIndexed(t *testing.T) {
	pts := fuzzPoints(600, 3)
	for _, p := range []Point{{X: 0.5, Y: math.Inf(-1)}, {X: math.Inf(-1), Y: 0.5}, {X: math.NaN(), Y: 0.5}} {
		s := deltaSharded(t, pts, 2)
		s.Insert(p)
		for _, r := range deltaRects(rand.New(rand.NewSource(3)), 40) {
			s.RangeQuery(r) // the rebuild learns from these
		}
		if !s.rebuildShard(s.ShardOf(p), true) {
			t.Fatalf("%v: the rebuild did not swap", p)
		}
		want := len(pts) + geom.CountInside([]Point{p}, everywhere)
		if n, l := s.RangeCount(everywhere), s.Len(); n != want || l != len(pts)+1 {
			t.Fatalf("%v: after a rebuild, RangeCount(everywhere) = %d and Len %d; want %d and %d", p, n, l, want, len(pts)+1)
		}
		checkRebased(t, s, p.String())
	}
	s := deltaSharded(t, append(slices.Clone(pts), Point{X: math.NaN(), Y: 0.5}), 2)
	if n, l := s.RangeCount(everywhere), s.Len(); n != len(pts) || l != len(pts)+1 {
		t.Fatalf("cold build with a NaN: RangeCount(everywhere) = %d and Len %d; want %d and %d", n, l, len(pts), len(pts)+1)
	}
}

// TestShardRebaseKeepsBits: a rebase counts values by their exact bits, so
// a buffered (0.3, +0) cancelled and inserted again as (0.3, −0) while a
// rebuild runs comes out of it as −0, as the serving state held it.
func TestShardRebaseKeepsBits(t *testing.T) {
	for _, relearn := range []bool{false, true} {
		s := deltaSharded(t, fuzzPoints(300, 91), 1)
		pos, neg := Point{X: 0.3, Y: 0}, Point{X: 0.3, Y: math.Copysign(0, -1)}
		s.Insert(pos)
		snap, _ := s.captureShard(0)
		if !s.Delete(neg) {
			t.Fatal("the delete of (0.3, −0) did not cancel the buffered (0.3, +0)")
		}
		s.Insert(neg)
		if !s.rebuildFrom(snap, 0, relearn) {
			t.Fatal("the rebuild did not swap")
		}
		if got := s.RangeQuery(pointRect(pos)); len(got) != 1 || !math.Signbit(got[0].Y) {
			t.Fatalf("relearn %v: after the rebuild the shard serves %v, want only (0.3, −0)", relearn, got)
		}
		checkRebased(t, s, "rebuilt")
	}
}

// TestShardMigrationRebase migrates to a plan learned from a shifted
// hotspot while writes land between the capture and the swap: the new
// shards must serve exactly the brute-force contents, the writes since the
// capture included, with their tombstones against their own indexes.
func TestShardMigrationRebase(t *testing.T) {
	base := deltaBase(1200, 81)
	s := deltaSharded(t, base, 4)
	ref := index.NewBrute(base)
	pool := deltaPool(base)
	rng := rand.New(rand.NewSource(82))
	for range 2000 {
		x, y := 0.8+rng.Float64()*0.15, 0.8+rng.Float64()*0.15
		s.RangeQuery(Rect{MinX: x - 0.03, MinY: y - 0.03, MaxX: x + 0.03, MaxY: y + 0.03})
	}
	deltaWrite(t, s, ref, pool, rng, 300)
	snap, window, ok := s.beginMigration(nil)
	if !ok {
		t.Fatal("migration refused to start")
	}
	deltaWrite(t, s, ref, pool, rng, 300)
	if !s.migrate(snap, window) {
		t.Fatal("the migration did not swap")
	}
	if s.PlanEpoch() != 1 || s.Migrating() {
		t.Fatalf("after the migration: epoch %d, migrating %v", s.PlanEpoch(), s.Migrating())
	}
	checkRebased(t, s, "migrated")
	checkDelta(t, s, ref, deltaRects(rng, 3), pool, "migrated")
}

// TestShardDeltaViewIsolation pins Views over a shard's insert run while it
// is extended in place, sealed, cut and extended again, and a reader keeps
// querying them: a View's answers, down to their order, never change.
//   - The first View holds a three-point tail; five inserts then extend its
//     array in place and seal it, so a merge that sorted the shared tail
//     would reorder the View's answers.
//   - The second View holds the sealed run; a buffered delete then cancels
//     one of its entries, which must copy the run, not shift it.
//   - Thirteen more inserts, twenty since the first View, cross a second
//     seal; the last one is cancelled and a fresh one inserted.
func TestShardDeltaViewIsolation(t *testing.T) {
	base := deltaBase(800, 31)
	s := deltaSharded(t, base, 4)
	const shard = 1
	rng := rand.New(rand.NewSource(32))
	var fresh []Point
	for len(fresh) < 32 {
		if p := (Point{X: rng.Float64(), Y: rng.Float64()}); s.ShardOf(p) == shard {
			fresh = append(fresh, p)
		}
	}
	// The first View's tail arrives in descending X, so sorting it would show.
	slices.SortFunc(fresh[8:11], func(a, b Point) int { return geom.CmpXY(b, a) })
	for _, p := range fresh[:11] {
		s.Insert(p)
	}
	r := s.snap.Load().shards[shard].bounds
	type answers struct {
		pts, knn []Point
		count    int
		found    []bool
		len      int
	}
	read := func(v *View) answers {
		a := answers{pts: v.RangeQuery(r), knn: v.KNN(fresh[0], 7), count: v.RangeCount(r), len: v.Len()}
		for _, p := range fresh {
			a.found = append(a.found, v.PointQuery(p))
		}
		return a
	}
	same := func(a, b answers) bool {
		return slices.Equal(a.pts, b.pts) && slices.Equal(a.knn, b.knn) && a.count == b.count &&
			slices.Equal(a.found, b.found) && a.len == b.len
	}
	var mu sync.Mutex
	var views []*View
	var wants []answers
	pin := func() {
		v := s.View()
		mu.Lock()
		views, wants = append(views, v), append(wants, read(v))
		mu.Unlock()
	}

	pin()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			vs, ws := views, wants
			mu.Unlock()
			for i, v := range vs {
				if !same(read(v), ws[i]) {
					t.Errorf("View %d's answers changed while its shard was written", i)
					return
				}
			}
		}
	}()
	for _, p := range fresh[11:16] {
		s.Insert(p)
	}
	pin()
	for _, p := range fresh[16:18] {
		s.Insert(p)
	}
	if !s.Delete(fresh[0]) {
		t.Error("buffered delete of a sealed insert missed")
	}
	for _, p := range fresh[18:31] {
		s.Insert(p)
	}
	if !s.Delete(fresh[30]) {
		t.Error("buffered delete of the last insert missed")
	}
	s.Insert(fresh[31])
	close(done)
	wg.Wait()
	for i, v := range views {
		if !same(read(v), wants[i]) {
			t.Fatalf("View %d's answers changed after its shard was written", i)
		}
	}
	if got := views[0].snap.shards[shard].extra; got.size() != 11 || got.sorted != 8 {
		t.Fatalf("the first View's run holds %d entries, %d sorted; want 11, 8", got.size(), got.sorted)
	}
	if got := views[1].snap.shards[shard].extra; got.size() != 16 || got.sorted != 16 {
		t.Fatalf("the second View's run holds %d entries, %d sorted; want 16, 16", got.size(), got.sorted)
	}
	if cur := s.snap.Load().shards[shard].extra; cur.size() != 30 || cur.sorted != 23 {
		t.Fatalf("the shard's run holds %d entries, %d sorted; want 30, 23", cur.size(), cur.sorted)
	}
}

// TestShardDeltaDirtyReadsAllocateNothing: a range read over a shard with
// buffered inserts and a tombstone inside the rectangle allocates nothing,
// and neither does its count.
func TestShardDeltaDirtyReadsAllocateNothing(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops a quarter of its Puts under the race detector: pooled arenas miss")
			}
		}
	}
	base := deltaBase(2000, 41)
	s := deltaSharded(t, base, 4)
	r := Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6}
	dead := 0
	for _, p := range base {
		if r.Contains(p) && dead < 5 && s.Delete(p) {
			dead++
		}
	}
	rng := rand.New(rand.NewSource(42))
	for range 100 {
		s.Insert(Point{X: 0.3 + rng.Float64()*0.3, Y: 0.3 + rng.Float64()*0.3})
	}
	if dead == 0 {
		t.Fatal("no tombstone inside r")
	}
	want := s.RangeCount(r)
	buf := make([]Point, 0, 4*want)
	if got := len(s.RangeQueryAppend(buf, r)); got != want {
		t.Fatalf("RangeQueryAppend returned %d points, RangeCount %d", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { buf = s.RangeQueryAppend(buf[:0], r) }); n != 0 {
		t.Errorf("dirty RangeQueryAppend: %v allocations per read, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.RangeCount(r) }); n != 0 {
		t.Errorf("dirty RangeCount: %v allocations per read, want 0", n)
	}
}

// TestShardedSaveIsDeterministic: two Saves of one unchanged state write the
// same bytes, tombstones included.
func TestShardedSaveIsDeterministic(t *testing.T) {
	base := deltaBase(1000, 51)
	s := deltaSharded(t, base, 4)
	rng := rand.New(rand.NewSource(52))
	for i := range 60 {
		s.Insert(Point{X: rng.Float64(), Y: rng.Float64()})
		s.Delete(base[i])
	}
	var a, b bytes.Buffer
	if err := s.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two Saves of one unchanged state differ")
	}
}

// TestLoadShardedRefusesBadTombstones: a snapshot whose tombstone records no
// Save could have written — a record repeated, a record for a point the
// shard's index does not hold, a count below one — is refused with an
// error instead of serving a Len that disagrees with its reads.
func TestLoadShardedRefusesBadTombstones(t *testing.T) {
	base := fuzzPoints(800, 61)
	s := deltaSharded(t, base, 3)
	if !s.Delete(base[7]) {
		t.Fatal("delete of an indexed point missed")
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	shard := s.ShardOf(base[7])
	for _, tc := range []struct {
		name string
		edit func([]deadRecord) []deadRecord
	}{
		{"as saved", func(d []deadRecord) []deadRecord { return d }},
		{"repeated record", func(d []deadRecord) []deadRecord { return append(d, d[0]) }},
		{"point not indexed", func(d []deadRecord) []deadRecord {
			return append(d, deadRecord{P: Point{X: 0.123456, Y: 0.654321}, N: 1})
		}},
		{"negative count", func(d []deadRecord) []deadRecord { d[0].N = -5; return d }},
	} {
		data := doctorSnapshot(t, buf.Bytes(), nil, func(i int, rec *shardedShardRecord) {
			if i == shard {
				if len(rec.Dead) != 1 {
					t.Fatalf("shard %d saved %d tombstone records, want 1", i, len(rec.Dead))
				}
				rec.Dead = tc.edit(rec.Dead)
			}
		})
		got, err := LoadSharded(bytes.NewReader(data), WithoutAutoRebuild())
		if tc.name == "as saved" {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got.Len() != len(base)-1 || got.RangeCount(everywhere) != len(base)-1 || got.PointQuery(base[7]) {
				t.Fatalf("%s: loaded Len %d, count %d", tc.name, got.Len(), got.RangeCount(everywhere))
			}
			got.Close()
			continue
		}
		if err == nil {
			got.Close()
			t.Fatalf("%s: LoadSharded accepted the snapshot", tc.name)
		}
		if !strings.Contains(err.Error(), "tombstone") {
			t.Fatalf("%s: error %q does not name the tombstone", tc.name, err)
		}
	}
}
