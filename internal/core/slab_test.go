package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/storage"
	"github.com/wazi-index/wazi/internal/workload"
)

// This file tests the sorted run each leaf page keeps and the slab scan over
// it (query.go). Every test that calls CheckInvariants also checks the runs
// (checkPageInvariants, export_test.go).

// slabStores names the two page stores every slab test runs on: a fresh
// RAM-resident store, and a disk-resident one with a cache small enough to
// evict.
func slabStores(t *testing.T) map[string]func() Options {
	dir := t.TempDir()
	n := 0
	return map[string]func() Options{
		"mem": func() Options { return Options{LeafSize: 64, Seed: 7} },
		"disk": func() Options {
			n++
			return Options{LeafSize: 64, Seed: 7, StorageCachePages: 8,
				StoragePath: filepath.Join(dir, "slab-"+string(rune('a'+n))+".pages")}
		},
	}
}

// tiedPts draws n points whose X takes one of 40 values, so pages hold runs
// of equal X and query edges land on them, followed by a copy of the first
// tenth: exact duplicates.
func tiedPts(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(rng.Intn(40)) / 40, Y: rng.Float64()}
	}
	return append(pts, pts[:n/10]...)
}

// edgeRect returns a query whose edges lie exactly on coordinates of live
// points: X from two points, and Y from two more, from the whole domain (a
// rectangle spanning every cell in Y), or from the cell of a random leaf.
func edgeRect(rng *rand.Rand, z *ZIndex, live []geom.Point) geom.Rect {
	a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
	r := geom.NewRect(a, b)
	switch rng.Intn(3) {
	case 0:
		r.MinY, r.MaxY = -1, 2
	case 1:
		l := z.head
		for i := rng.Intn(z.Leaves()); i > 0; i-- {
			l = l.next
		}
		r.MinY, r.MaxY = l.bounds.MinY, l.bounds.MaxY
	}
	return r
}

// TestSlabMatchesBruteForce holds RangeQueryAppend, RangeCount,
// RangeQueryPhased and KNN to brute force where the slab cut and the bulk
// copy could go wrong: query edges exactly on point coordinates, runs of
// equal X, duplicates, and rectangles spanning cells in Y, on freshly built
// pages, on pages with tails after inserts, and on runs shortened by
// deletes.
func TestSlabMatchesBruteForce(t *testing.T) {
	for name, opts := range slabStores(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			live := tiedPts(3000, 12)
			z, err := BuildWaZI(live, skewedQueries(100, 13), opts())
			if err != nil {
				t.Fatal(err)
			}
			defer z.Close()
			live = slices.Clone(live)
			check := func(stage string) {
				t.Helper()
				if err := z.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				for i := 0; i < 300; i++ {
					r := edgeRect(rng, z, live)
					want := bruteRange(live, r)
					samePointSets(t, z.RangeQueryAppend(nil, r), want, stage+" RangeQueryAppend "+r.String())
					phased, _, _ := z.RangeQueryPhased(r)
					samePointSets(t, phased, want, stage+" RangeQueryPhased "+r.String())
					if n := z.RangeCount(r); n != len(want) {
						t.Fatalf("%s: RangeCount(%v) = %d, want %d", stage, r, n, len(want))
					}
				}
				for i := 0; i < 40; i++ {
					q, k := live[rng.Intn(len(live))], 1+rng.Intn(60)
					want := slices.Clone(live)
					geom.SortByDistance(want, q)
					if got := z.KNN(q, k); !slices.Equal(got, want[:k]) {
						t.Fatalf("%s: KNN(%v, %d) = %v, want %v", stage, q, k, got, want[:k])
					}
				}
			}
			check("build")
			for i := 0; i < 1500; i++ {
				p := geom.Point{X: float64(rng.Intn(41)) / 40, Y: rng.Float64()}
				if i%5 == 0 {
					p = live[rng.Intn(len(live))]
				}
				z.Insert(p)
				live = append(live, p)
			}
			check("inserts")
			for i := 0; i < 2500; i++ {
				j := rng.Intn(len(live))
				if !z.Delete(live[j]) {
					t.Fatalf("Delete(%v) of a live point reported not found", live[j])
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			check("deletes")
		})
	}
}

// TestPageRunsAfterEveryPath checks the page invariants after each path
// that writes pages — both builds, insert and delete streams with their
// splits and merges, and both load paths — on both stores, and that a
// fresh build's pages are all run.
func TestPageRunsAfterEveryPath(t *testing.T) {
	for name, opts := range slabStores(t) {
		t.Run(name, func(t *testing.T) {
			pts := clusteredPts(4000, 21)
			base, err := BuildBase(pts, opts())
			if err != nil {
				t.Fatal(err)
			}
			defer base.Close()
			z, err := BuildWaZI(pts, skewedQueries(100, 22), opts())
			if err != nil {
				t.Fatal(err)
			}
			defer z.Close()
			for _, x := range []*ZIndex{base, z} {
				if err := x.CheckInvariants(); err != nil {
					t.Fatalf("after build: %v", err)
				}
				for l := x.head; l != nil; l = l.next {
					if l.sorted != l.n {
						t.Fatalf("built leaf %d keeps a run of %d of its %d points", l.ord, l.sorted, l.n)
					}
				}
			}
			rng := rand.New(rand.NewSource(23))
			for i := 0; i < 3000; i++ {
				z.Insert(geom.Point{X: rng.Float64(), Y: rng.Float64()})
			}
			if err := z.CheckInvariants(); err != nil {
				t.Fatalf("after inserts: %v", err)
			}
			for _, p := range pts {
				z.Delete(p)
			}
			if err := z.CheckInvariants(); err != nil {
				t.Fatalf("after deletes: %v", err)
			}
			if s := z.Stats(); s.PageSplits == 0 || s.PageMerges == 0 {
				t.Fatalf("churn made %d splits and %d merges, want both", s.PageSplits, s.PageMerges)
			}
			var snap bytes.Buffer
			if err := z.Save(&snap); err != nil {
				t.Fatal(err)
			}
			re, err := Load(&snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatalf("after inline load: %v", err)
			}
		})
	}
}

// TestWarmStartRestoresRuns reloads an attached snapshot and requires each
// leaf's run measured from the page file to be as long as the one saved —
// the full page for a fresh build, at least the run for a churned one, whose
// tail may happen to continue it — so a warm start keeps the slab scan.
func TestWarmStartRestoresRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.pages")
	z, err := BuildWaZI(clusteredPts(4000, 31), skewedQueries(100, 32),
		Options{LeafSize: 64, Seed: 7, StoragePath: path, StorageCachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, churn := range []bool{false, true} {
		if churn {
			rng := rand.New(rand.NewSource(33))
			for i := 0; i < 2000; i++ {
				z.Insert(geom.Point{X: rng.Float64(), Y: rng.Float64()})
			}
		}
		var want []int
		for l := z.head; l != nil; l = l.next {
			if !churn && l.sorted != l.n {
				t.Fatalf("built leaf %d keeps a run of %d of its %d points", l.ord, l.sorted, l.n)
			}
			want = append(want, l.sorted)
		}
		var snap bytes.Buffer
		if err := z.SaveAttached(&snap); err != nil {
			t.Fatal(err)
		}
		if err := z.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := storage.OpenPageFile(path, storage.DiskOptions{CachePages: 8})
		if err != nil {
			t.Fatal(err)
		}
		if z, err = LoadWithStore(&snap, st); err != nil {
			t.Fatal(err)
		}
		if err := z.CheckInvariants(); err != nil {
			t.Fatalf("churn %v: %v", churn, err)
		}
		i := 0
		for l := z.head; l != nil; l, i = l.next, i+1 {
			if l.sorted < want[i] {
				t.Fatalf("churn %v: reloaded leaf %d keeps a run of %d, saved with %d", churn, l.ord, l.sorted, want[i])
			}
		}
	}
	z.Close()
}

// TestSlabComparesFewer counts, with no clock, the points the range kernel
// compares against a query over the benchmark's fixture, 1 000 queries per
// Table 2 selectivity: the run outside the query's X-extent is never read,
// and a slab the query spans in Y is copied without a compare. Every point
// of an overlapping page still counts as scanned, the paper's cost.
func TestSlabComparesFewer(t *testing.T) {
	pts, train := workload.BenchFixture()
	z, err := BuildWaZI(pts, train, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var scanned, compared, copied int
	for i, sel := range workload.Selectivities {
		for _, r := range workload.Skewed(dataset.CaliNev, 1000, sel, int64(10+i)) {
			var d storage.Stats
			clipped := r.Intersect(z.bounds)
			if !clipped.Valid() {
				continue
			}
			cur := z.leafScan(clipped, r, &d)
			for l := cur.next(); l != nil; l = cur.next() {
				v := z.store.View(l.pid)
				s, all := l.slab(v.Pts, r)
				v.Release()
				scanned += l.n
				compared += l.n - l.sorted
				if all {
					copied += len(s)
				} else {
					compared += len(s)
				}
			}
		}
	}
	t.Logf("points scanned %d, compared %d (%.3f), bulk-copied %d", scanned, compared,
		float64(compared)/float64(scanned), copied)
	if float64(compared) > 0.55*float64(scanned) {
		t.Fatalf("compared %d of %d scanned points, want at most 55 %%", compared, scanned)
	}
}
