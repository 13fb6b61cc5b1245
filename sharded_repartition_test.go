package wazi_test

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	wazi "github.com/wazi-index/wazi"
)

// Deterministic tests for the online repartitioner: content preservation
// across a live migration, pinned-View routing against the retired plan,
// the imbalance advisor's trigger and non-trigger, epoch-numbered page
// files on the disk backend, and mid-migration snapshots. The concurrent
// interleavings are covered by TestShardedRepartitionSoak; the plan-level
// metamorphic properties live in internal/shard.

// uniformPoints spreads points evenly so partition shapes are controlled by
// the workload alone.
func uniformPoints(n int, seed int64) []wazi.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]wazi.Point, n)
	for i := range pts {
		pts[i] = wazi.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

// hotspotWorkload generates n small range queries clustered around (cx, cy).
func hotspotWorkload(n int, cx, cy float64, seed int64) []wazi.Rect {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]wazi.Rect, n)
	for i := range qs {
		x := cx + rng.NormFloat64()*0.05
		y := cy + rng.NormFloat64()*0.05
		qs[i] = wazi.Rect{MinX: x - 0.03, MinY: y - 0.03, MaxX: x + 0.03, MaxY: y + 0.03}
	}
	return qs
}

// driftTo builds a Sharded trained on a head hotspot and drives a shifted
// tail hotspot through it, returning the tail queries.
func driftTo(t *testing.T, s *wazi.Sharded, seed int64) []wazi.Rect {
	t.Helper()
	tail := hotspotWorkload(2000, 0.85, 0.85, seed)
	for _, q := range tail {
		s.RangeQuery(q)
	}
	return tail
}

// dedicatedShards counts shards wholly contained in region with fewer than
// maxPts points — small shards the plan dedicated to that region. (MBR
// intersection is too weak a signal here: Z-order shards have wide,
// overlapping MBRs, so a cold continent-sized shard "intersects" every
// region.)
func dedicatedShards(s *wazi.Sharded, region wazi.Rect, maxPts int) int {
	n := 0
	for _, info := range s.Shards() {
		b := info.Bounds
		if info.Points > 0 && info.Points < maxPts &&
			b.MinX >= region.MinX && b.MinY >= region.MinY &&
			b.MaxX <= region.MaxX && b.MaxY <= region.MaxY {
			n++
		}
	}
	return n
}

// TestRepartitionRebalancesHotspot drives a shifted hotspot into a plan
// trained elsewhere and checks the migration actually rebalances: the hot
// region is covered by more, smaller shards afterwards, the epoch and
// counter advance, and every query still answers exactly.
func TestRepartitionRebalancesHotspot(t *testing.T) {
	pts := uniformPoints(12000, 1)
	head := hotspotWorkload(600, 0.15, 0.15, 2)
	s := newTestSharded(t, pts, head, wazi.WithShards(8), wazi.WithoutAutoRebuild(),
		wazi.WithIndexOptions(wazi.WithSeed(3)))
	tail := driftTo(t, s, 4)

	// The tail hotspot lives in the (0.7,0.7)-(1,1) corner; a rebalanced plan
	// dedicates small shards to it, the head-trained plan dedicates none.
	hot := wazi.Rect{MinX: 0.7, MinY: 0.7, MaxX: 1, MaxY: 1}
	before := dedicatedShards(s, hot, len(pts)/8)
	if !s.Repartition() {
		t.Fatal("Repartition declined to migrate under a fully shifted hotspot")
	}
	after := dedicatedShards(s, hot, len(pts)/8)
	if s.PlanEpoch() != 1 || s.Repartitions() != 1 {
		t.Fatalf("epoch/repartitions = %d/%d after one migration, want 1/1", s.PlanEpoch(), s.Repartitions())
	}
	if before != 0 || after < 2 {
		t.Errorf("hot corner not rebalanced: %d dedicated shards before, %d after (want 0 -> >=2)", before, after)
	}

	if s.Len() != len(pts) {
		t.Fatalf("migration changed Len: %d, want %d", s.Len(), len(pts))
	}
	for i, q := range append(append([]wazi.Rect{}, head[:100]...), tail[:100]...) {
		got := s.RangeQuery(q)
		want := bruteRange(pts, q)
		sortPts(got)
		sortPts(want)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d hits after migration, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d hit %d: %v, want %v", i, j, got[j], want[j])
			}
		}
		if c := s.RangeCount(q); c != len(want) {
			t.Fatalf("count %d: %d, want %d", i, c, len(want))
		}
	}
	for i := 0; i < len(pts); i += 97 {
		if !s.PointQuery(pts[i]) {
			t.Fatalf("point %v lost by migration", pts[i])
		}
	}
}

// TestRepartitionNoOpOnBalancedPlan: a plan already learned from the live
// workload has nothing to gain — Repartition must detect the Equal plan and
// decline rather than churn through a pointless migration.
func TestRepartitionNoOpOnBalancedPlan(t *testing.T) {
	pts := uniformPoints(6000, 11)
	s := newTestSharded(t, pts, nil, wazi.WithShards(6), wazi.WithoutAutoRebuild())
	// No queries observed: the re-learned plan is the count-balanced plan the
	// index was built with.
	if s.Repartition() {
		t.Fatal("Repartition migrated to an identical plan")
	}
	if s.PlanEpoch() != 0 || s.Repartitions() != 0 {
		t.Fatalf("no-op left epoch/repartitions at %d/%d, want 0/0", s.PlanEpoch(), s.Repartitions())
	}
}

// TestRepartitionViewPinnedAcrossMigration: a View taken before the swap
// keeps routing with the plan it was pinned to — every query type answers
// from the retired snapshot exactly as the live index answers from the new
// one while the data is unchanged.
func TestRepartitionViewPinnedAcrossMigration(t *testing.T) {
	pts := uniformPoints(8000, 21)
	head := hotspotWorkload(400, 0.2, 0.2, 22)
	s := newTestSharded(t, pts, head, wazi.WithShards(8), wazi.WithoutAutoRebuild())
	tail := driftTo(t, s, 23)

	v := s.View()
	if !s.Repartition() {
		t.Fatal("Repartition declined")
	}
	if v.Len() != s.Len() {
		t.Fatalf("pinned View Len %d, live Len %d", v.Len(), s.Len())
	}
	for _, q := range tail[:60] {
		got, want := v.RangeQuery(q), s.RangeQuery(q)
		sortPts(got)
		sortPts(want)
		if len(got) != len(want) {
			t.Fatalf("pinned View returned %d hits, live index %d", len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("pinned View hit %d = %v, live %v", j, got[j], want[j])
			}
		}
	}
	for i := 0; i < len(pts); i += 131 {
		if !v.PointQuery(pts[i]) {
			t.Fatalf("pinned View lost point %v (old-plan routing broken)", pts[i])
		}
	}
	// Writes after the swap are invisible to the pinned View but visible live.
	p := wazi.Point{X: 0.111, Y: 0.222}
	s.Insert(p)
	if v.PointQuery(p) {
		t.Fatal("pinned View sees a post-swap insert")
	}
	if !s.PointQuery(p) {
		t.Fatal("live index lost a post-swap insert")
	}
}

// TestCheckRepartitionAdvisor: the imbalance advisor fires on skewed load
// once enough queries accumulated, and stays quiet under balanced load or
// below the minimum sample size.
func TestCheckRepartitionAdvisor(t *testing.T) {
	pts := uniformPoints(8000, 31)
	head := hotspotWorkload(400, 0.15, 0.15, 32)
	build := func() *wazi.Sharded {
		return newTestSharded(t, pts, head, wazi.WithShards(8), wazi.WithoutAutoRebuild(),
			wazi.WithRepartitionMinLoad(500), wazi.WithRepartitionMaxSkew(2.5))
	}

	skewed := build()
	// Below the minimum sample the advisor must not judge, however skewed.
	for _, q := range hotspotWorkload(40, 0.85, 0.85, 33) {
		skewed.RangeQuery(q)
	}
	if skewed.CheckRepartition() {
		t.Fatal("advisor migrated on a sample below WithRepartitionMinLoad")
	}
	for _, q := range hotspotWorkload(2000, 0.85, 0.85, 34) {
		skewed.RangeQuery(q)
	}
	if !skewed.CheckRepartition() {
		t.Fatal("advisor ignored a fully skewed load vector")
	}
	if skewed.Repartitions() != 1 {
		t.Fatalf("advisor-triggered migrations = %d, want 1", skewed.Repartitions())
	}

	// Balanced case: a count-balanced plan under uniform load. (A
	// hotspot-trained plan under uniform load is genuinely skewed — its
	// dedicated hotspot shards idle — so the balanced baseline must pair a
	// plan with the load it was built for.)
	balanced := newTestSharded(t, pts, nil, wazi.WithShards(8), wazi.WithoutAutoRebuild(),
		wazi.WithRepartitionMinLoad(500), wazi.WithRepartitionMaxSkew(2.5))
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 3000; i++ {
		cx, cy := rng.Float64(), rng.Float64()
		balanced.RangeQuery(wazi.Rect{MinX: cx - 0.02, MinY: cy - 0.02, MaxX: cx + 0.02, MaxY: cy + 0.02})
	}
	if balanced.CheckRepartition() {
		t.Fatal("advisor migrated under balanced load")
	}
}

// TestRepartitionDiskEpochFiles: on the disk backend a migration writes the
// new plan's shards under the next epoch's page files, a subsequent save
// warm-starts onto them, and the retired epoch's files are swept at load.
func TestRepartitionDiskEpochFiles(t *testing.T) {
	dir := t.TempDir()
	pts := uniformPoints(6000, 41)
	head := hotspotWorkload(400, 0.2, 0.2, 42)
	s := newTestSharded(t, pts, head, wazi.WithShards(4), wazi.WithoutAutoRebuild(),
		wazi.WithIndexOptions(wazi.WithLeafSize(64), wazi.WithSeed(43)),
		wazi.WithShardedStorage(dir, 64))
	driftTo(t, s, 44)

	if !s.Repartition() {
		t.Fatal("Repartition declined")
	}
	if g, _ := filepath.Glob(filepath.Join(dir, "shard-e001-*.pages")); len(g) == 0 {
		t.Fatal("migration wrote no epoch-1 page files")
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := wazi.LoadSharded(bytes.NewReader(buf.Bytes()),
		wazi.WithShardedStorage(dir, 64), wazi.WithoutAutoRebuild())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(pts) {
		t.Fatalf("warm start Len %d, want %d", re.Len(), len(pts))
	}
	if re.PlanEpoch() != 1 || re.Repartitions() != 1 {
		t.Fatalf("warm start epoch/repartitions = %d/%d, want 1/1", re.PlanEpoch(), re.Repartitions())
	}
	if g, _ := filepath.Glob(filepath.Join(dir, "shard-e000-*.pages")); len(g) != 0 {
		t.Fatalf("retired epoch-0 files survived the warm-start sweep: %v", g)
	}
	for i := 0; i < len(pts); i += 113 {
		if !re.PointQuery(pts[i]) {
			t.Fatalf("warm start lost point %v", pts[i])
		}
	}
}

// TestSaveMidMigration: a snapshot written while a migration is in flight —
// between its capture and its swap — holds the writes made since the
// capture, restores to the full serving state, and the restored instance is
// not migrating (its control loop re-learns).
func TestSaveMidMigration(t *testing.T) {
	pts := uniformPoints(4000, 51)
	head := hotspotWorkload(300, 0.2, 0.2, 52)
	s := newTestSharded(t, pts, head, wazi.WithShards(4), wazi.WithoutAutoRebuild())
	tail := hotspotWorkload(300, 0.8, 0.8, 53)

	finish := s.BeginMigration(t, tail)
	if !s.Migrating() {
		t.Fatal("BeginMigration did not mark the index migrating")
	}
	// A mid-migration write: applied to the serving shards and rebased onto
	// the new ones at the swap, so the snapshot below must include it.
	extra := wazi.Point{X: 0.456, Y: 0.654}
	s.Insert(extra)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !finish() {
		t.Fatal("the migration did not swap")
	}
	if s.Len() != len(pts)+1 || !s.PointQuery(extra) {
		t.Fatalf("after the swap: Len %d, want %d, or the mid-migration insert is lost", s.Len(), len(pts)+1)
	}

	re, err := wazi.LoadSharded(bytes.NewReader(buf.Bytes()), wazi.WithoutAutoRebuild())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Migrating() {
		t.Fatal("restored instance claims to be mid-migration")
	}
	if re.Len() != len(pts)+1 {
		t.Fatalf("restored Len %d, want %d", re.Len(), len(pts)+1)
	}
	if !re.PointQuery(extra) {
		t.Fatal("mid-migration insert lost across save/reload")
	}

	// A Save can also land before the new plan is learned — in flight, no
	// writes since the capture yet. That snapshot must restore too.
	finish = s.BeginMigration(t, head)
	var learn bytes.Buffer
	if err := s.Save(&learn); err != nil {
		t.Fatal(err)
	}
	finish()
	re2, err := wazi.LoadSharded(bytes.NewReader(learn.Bytes()), wazi.WithoutAutoRebuild())
	if err != nil {
		t.Fatalf("snapshot saved during the learn phase does not restore: %v", err)
	}
	defer re2.Close()
	if re2.Len() != len(pts)+1 {
		t.Fatalf("learn-phase snapshot Len %d, want %d", re2.Len(), len(pts)+1)
	}
}
