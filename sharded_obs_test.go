package wazi

import (
	"math/rand"
	"testing"

	"github.com/wazi-index/wazi/internal/obs"
)

func obsTestPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func TestShardedObsInstruments(t *testing.T) {
	pts := obsTestPoints(6000, 1)
	s, err := NewSharded(pts, nil, WithShards(4), WithoutAutoRebuild(),
		WithShardedStorage(t.TempDir(), 2), WithIndexOptions(WithLeafSize(64)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	o := s.Obs()
	if o == nil {
		t.Fatal("Obs() = nil with observability on")
	}
	wide := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	got := s.RangeQuery(wide)
	if len(got) != len(pts) {
		t.Fatalf("wide range returned %d, want %d", len(got), len(pts))
	}
	if o.FanoutWidth.Count() == 0 {
		t.Fatal("FanoutWidth not observed")
	}
	if o.ShardScan.Count() == 0 {
		t.Fatal("ShardScan not observed")
	}
	// A 2-page cache against a 4-shard scan of ~24 pages each must fault.
	if o.PageRead.Count() == 0 {
		t.Fatal("PageRead not observed despite a tiny cache")
	}
	// A narrow query prunes shards.
	s.RangeQuery(Rect{MinX: 0.01, MinY: 0.01, MaxX: 0.02, MaxY: 0.02})
	if o.FanoutPruned.Value() == 0 {
		t.Fatal("FanoutPruned never advanced on a narrow query")
	}
}

func TestViewPhases(t *testing.T) {
	pts := obsTestPoints(6000, 2)
	s, err := NewSharded(pts, nil, WithShards(4), WithoutAutoRebuild(),
		WithShardedStorage(t.TempDir(), 2), WithIndexOptions(WithLeafSize(64)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ph obs.Phases
	v := s.View()
	v.SetPhases(&ph)
	got := v.RangeQuery(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if len(got) != len(pts) {
		t.Fatalf("timed range returned %d, want %d", len(got), len(pts))
	}
	if ph.Scans != 4 {
		t.Fatalf("scans = %d, want 4 (one per shard)", ph.Scans)
	}
	if ph.Results != int64(len(pts)) {
		t.Fatalf("results = %d, want %d", ph.Results, len(pts))
	}
	// A 2-page cache against ~24 pages per shard must fault, and the read
	// time is carved out of the scans, never added on top of them.
	if ph.PageReads == 0 || ph.NS[obs.PhasePagestore] <= 0 {
		t.Fatalf("page reads = %d, pagestore = %d ns, want both > 0", ph.PageReads, ph.NS[obs.PhasePagestore])
	}
	if ph.NS[obs.PhaseScan] < 0 {
		t.Fatalf("scan = %d ns after carving out pagestore, want >= 0", ph.NS[obs.PhaseScan])
	}

	// An untimed View leaves the record untouched.
	before := ph
	s.View().RangeQuery(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if ph != before {
		t.Fatalf("untimed view moved the record: %+v -> %+v", before, ph)
	}
}

func TestWithoutObservability(t *testing.T) {
	pts := obsTestPoints(2000, 3)
	s, err := NewSharded(pts, nil, WithShards(4), WithoutAutoRebuild(), WithoutObservability())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Obs() != nil {
		t.Fatal("Obs() should be nil under WithoutObservability")
	}
	if got := s.RangeQuery(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); len(got) != len(pts) {
		t.Fatalf("range returned %d, want %d", len(got), len(pts))
	}
	// A request's clock still runs without the instruments.
	var ph obs.Phases
	v := s.View()
	v.SetPhases(&ph)
	v.RangeQuery(Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if ph.Scans == 0 {
		t.Fatal("timed view clocked no scans without observability")
	}
}
