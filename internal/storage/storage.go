// Package storage provides the clustered page abstraction shared by the
// indexes in this repository, together with the instrumentation counters the
// paper's ablation study reports (pages scanned, bounding boxes checked,
// points filtered, excess points).
//
// A Page holds up to a fixed capacity of points in arbitrary order (§3: "we
// consider the data points within a page to be stored in random order"). An
// index is clustered: points of consecutive leaf nodes live in consecutive
// pages.
package storage

import (
	"sync/atomic"

	"github.com/wazi-index/wazi/internal/geom"
)

// Page is one leaf page of a clustered index.
type Page struct {
	Pts []geom.Point
}

// Len returns the number of points stored in the page.
func (p *Page) Len() int { return len(p.Pts) }

// Filter appends to dst the points of the page that fall inside r and
// returns the extended slice. The caller's Stats, if any, must be updated
// separately; Filter itself is allocation-free apart from dst growth (see
// geom.AppendInside for how much spare capacity that growth leaves).
func (p *Page) Filter(r geom.Rect, dst []geom.Point) []geom.Point {
	return geom.AppendInside(dst, p.Pts, r)
}

// Contains reports whether the page stores a point equal to pt.
func (p *Page) Contains(pt geom.Point) bool {
	for _, q := range p.Pts {
		if q == pt {
			return true
		}
	}
	return false
}

// Bytes returns the approximate in-memory footprint of the page.
func (p *Page) Bytes() int64 {
	return int64(cap(p.Pts))*16 + 24 // 16 bytes per point + slice header
}

// Stats accumulates the access counters reported in the paper's evaluation
// (Figure 9 projection/scan split and the Figure 13 ablation metrics). All
// counters are cumulative; callers snapshot and subtract, or Reset between
// measurement windows.
type Stats struct {
	// RangeQueries counts range queries executed.
	RangeQueries int64
	// PointQueries counts point queries executed.
	PointQueries int64
	// NodesVisited counts internal tree nodes visited during projection.
	NodesVisited int64
	// BBChecked counts leaf bounding-box overlap tests performed during the
	// scanning phase (Figure 13 bottom-left).
	BBChecked int64
	// PagesScanned counts pages whose points were filtered (Figure 13
	// bottom-right).
	PagesScanned int64
	// PointsScanned counts points compared against a query rectangle — the
	// paper's retrieval cost.
	PointsScanned int64
	// ResultPoints counts points returned. ExcessPoints (Figure 13
	// top-right) is PointsScanned - ResultPoints.
	ResultPoints int64
	// LookaheadJumps counts range-query steps that followed a look-ahead
	// pointer instead of the next pointer.
	LookaheadJumps int64
	// Inserts and Deletes count update operations.
	Inserts int64
	Deletes int64
	// PageSplits and PageMerges count structural updates triggered by
	// overflowing/underflowing pages.
	PageSplits int64
	PageMerges int64
	// CacheHits, CacheMisses, and CacheEvictions are the block-cache
	// counters of a disk-resident PageStore (always zero for the
	// RAM-resident backend). The store routes them here through
	// SetStatsSink so index- and shard-level Stats surface them.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
}

// ExcessPoints returns the number of points scanned but not returned —
// the redundant work metric of the ablation study.
func (s *Stats) ExcessPoints() int64 { return s.PointsScanned - s.ResultPoints }

// Reset zeroes all counters. Safe against concurrent AtomicAdd callers.
func (s *Stats) Reset() {
	for _, f := range s.fields() {
		atomic.StoreInt64(f, 0)
	}
}

// fields lists the counters in declaration order, so the atomic helpers
// below stay in sync with the struct definition.
func (s *Stats) fields() [15]*int64 {
	return [15]*int64{
		&s.RangeQueries, &s.PointQueries, &s.NodesVisited, &s.BBChecked,
		&s.PagesScanned, &s.PointsScanned, &s.ResultPoints, &s.LookaheadJumps,
		&s.Inserts, &s.Deletes, &s.PageSplits, &s.PageMerges,
		&s.CacheHits, &s.CacheMisses, &s.CacheEvictions,
	}
}

// AtomicAdd folds the delta d into s with atomic additions, skipping zero
// fields. Query paths accumulate a per-query Stats on the stack and flush it
// here once, which is what makes an index safe to read from many goroutines
// at once (the serving layer in the root package relies on this).
func (s *Stats) AtomicAdd(d Stats) {
	dst := s.fields()
	src := d.fields()
	for i, f := range dst {
		if v := *src[i]; v != 0 {
			atomic.AddInt64(f, v)
		}
	}
}

// AtomicSnapshot returns a consistent-enough copy of the counters using
// atomic loads, for readers that run concurrently with AtomicAdd writers.
func (s *Stats) AtomicSnapshot() Stats {
	var out Stats
	dst := out.fields()
	for i, f := range s.fields() {
		*dst[i] = atomic.LoadInt64(f)
	}
	return out
}

// Add returns the field-wise sum of s and o, for aggregating counters
// across shards.
func (s Stats) Add(o Stats) Stats {
	dst := s.fields()
	for i, f := range o.fields() {
		*dst[i] += *f
	}
	return s
}

// Diff returns the counter deltas accumulated since an earlier snapshot.
func (s Stats) Diff(since Stats) Stats {
	dst := s.fields()
	for i, f := range since.fields() {
		*dst[i] -= *f
	}
	return s
}
