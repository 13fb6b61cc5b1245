package storage

import (
	"sync"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
)

func TestPageFilter(t *testing.T) {
	p := Page{Pts: []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.5, Y: 0.5}, {X: 0.9, Y: 0.9}}}
	got := p.Filter(geom.Rect{MinX: 0, MinY: 0, MaxX: 0.6, MaxY: 0.6}, nil)
	if len(got) != 2 {
		t.Fatalf("Filter returned %d points, want 2", len(got))
	}
	// Appends to the destination slice without clobbering.
	dst := []geom.Point{{X: 7, Y: 7}}
	got = p.Filter(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, dst)
	if len(got) != 4 || got[0] != (geom.Point{X: 7, Y: 7}) {
		t.Fatalf("Filter must append: got %v", got)
	}
}

func TestPageContains(t *testing.T) {
	p := Page{Pts: []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 1, Y: 2}}}
	if !p.Contains(geom.Point{X: 1, Y: 2}) {
		t.Error("Contains failed")
	}
	if p.Contains(geom.Point{X: 9, Y: 9}) {
		t.Error("Contains false positive")
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestPageBytes(t *testing.T) {
	p := Page{Pts: make([]geom.Point, 10, 32)}
	if p.Bytes() != 32*16+24 {
		t.Errorf("Bytes = %d", p.Bytes())
	}
}

func TestStatsDiffAndReset(t *testing.T) {
	var s Stats
	s.RangeQueries = 10
	s.PointsScanned = 100
	s.ResultPoints = 40
	snap := s
	s.RangeQueries = 15
	s.PointsScanned = 180
	s.ResultPoints = 60
	d := s.Diff(snap)
	if d.RangeQueries != 5 || d.PointsScanned != 80 || d.ResultPoints != 20 {
		t.Errorf("Diff = %+v", d)
	}
	if d.ExcessPoints() != 60 {
		t.Errorf("ExcessPoints = %d, want 60", d.ExcessPoints())
	}
	s.Reset()
	if s != (Stats{}) {
		t.Errorf("Reset left %+v", s)
	}
}

func TestStatsAtomicAdd(t *testing.T) {
	all := Stats{
		RangeQueries: 1, PointQueries: 2, NodesVisited: 3, BBChecked: 4,
		PagesScanned: 5, PointsScanned: 6, ResultPoints: 7, LookaheadJumps: 8,
		Inserts: 9, Deletes: 10, PageSplits: 11, PageMerges: 12,
	}
	var s Stats
	s.AtomicAdd(all)
	if s != all {
		t.Fatalf("AtomicAdd dropped fields: %+v", s)
	}
	if s.AtomicSnapshot() != all {
		t.Fatalf("AtomicSnapshot = %+v", s.AtomicSnapshot())
	}
	if got := all.Add(all); got.RangeQueries != 2 || got.PageMerges != 24 {
		t.Fatalf("Add = %+v", got)
	}
}

// TestStatsAtomicAddConcurrent checks the aggregation contract under
// parallel writers; meaningful under -race.
func TestStatsAtomicAddConcurrent(t *testing.T) {
	var s Stats
	var wg sync.WaitGroup
	const workers, rounds = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.AtomicAdd(Stats{RangeQueries: 1, PointsScanned: 3})
				_ = s.AtomicSnapshot()
			}
		}()
	}
	wg.Wait()
	got := s.AtomicSnapshot()
	if got.RangeQueries != workers*rounds || got.PointsScanned != 3*workers*rounds {
		t.Fatalf("lost updates: %+v", got)
	}
}

func TestStatsDiffAllFields(t *testing.T) {
	a := Stats{
		RangeQueries: 1, PointQueries: 2, NodesVisited: 3, BBChecked: 4,
		PagesScanned: 5, PointsScanned: 6, ResultPoints: 7, LookaheadJumps: 8,
		Inserts: 9, Deletes: 10, PageSplits: 11, PageMerges: 12,
	}
	zero := Stats{}
	if a.Diff(zero) != a {
		t.Error("Diff against zero must be identity")
	}
	if a.Diff(a) != zero {
		t.Error("Diff against self must be zero")
	}
}
