package wazi_test

import (
	"path/filepath"
	"runtime/debug"
	"testing"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/workload"
)

// kernelReader is the read kernel every backend shares: the Append forms
// of range and kNN, and the count.
type kernelReader interface {
	RangeQueryAppend(dst []wazi.Point, r wazi.Rect) []wazi.Point
	RangeCount(r wazi.Rect) int
	KNNAppend(dst []wazi.Point, q wazi.Point, k int) []wazi.Point
}

// TestQueryKernelAllocatesNothing holds the query kernel to zero
// allocations at steady state: range, count and kNN through the Append
// APIs, on an Index, through the Sharded fan-out with its pooled per-query
// arenas, and on both backed by page files whose block cache holds the
// working set, so that after one priming pass every page read is a cache
// hit handing out a pinned, borrowed view.
func TestQueryKernelAllocatesNothing(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops a quarter of its Puts under the race detector: pooled arenas miss")
			}
		}
	}
	const scale, leaf, k = 20_000, 256, 10
	r := dataset.NewYork
	data := dataset.Generate(r, scale, 1)
	train := workload.Skewed(r, 400, 0.0256e-2, 22)
	qs := workload.Skewed(r, 400, 0.0256e-2, 32)
	dir := t.TempDir()
	// Leaves average well under L points, so size the cache on a
	// pessimistic leaf count: a refault inside the measured passes would
	// allocate its cache entry.
	cache := scale/8 + 256

	indexOpts := []wazi.Option{wazi.WithLeafSize(leaf), wazi.WithSeed(1)}
	newIndex := func(extra ...wazi.Option) *wazi.Index {
		idx, err := wazi.NewWorkloadAware(data, train, append(indexOpts, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { idx.Close() })
		return idx
	}
	newSharded := func(extra ...wazi.ShardedOption) *wazi.Sharded {
		s, err := wazi.NewSharded(data, train, append([]wazi.ShardedOption{
			wazi.WithShards(8),
			wazi.WithIndexOptions(indexOpts...),
			wazi.WithoutAutoRebuild(),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	backends := []struct {
		name string
		r    kernelReader
	}{
		{"index", newIndex()},
		{"sharded", newSharded()},
		{"index-disk", newIndex(wazi.WithStorage(wazi.Storage{
			Path: filepath.Join(dir, "index.pages"), CachePages: cache,
		}))},
		{"sharded-disk", newSharded(wazi.WithShardedStorage(filepath.Join(dir, "shards"), cache))},
	}

	var buf []wazi.Point
	paths := []struct {
		name string
		run  func(kernelReader)
	}{
		{"range", func(kr kernelReader) {
			for _, q := range qs {
				buf = kr.RangeQueryAppend(buf[:0], q)
			}
		}},
		{"count", func(kr kernelReader) {
			for _, q := range qs {
				kr.RangeCount(q)
			}
		}},
		{"knn", func(kr kernelReader) {
			for _, q := range qs {
				c := wazi.Point{X: (q.MinX + q.MaxX) / 2, Y: (q.MinY + q.MaxY) / 2}
				buf = kr.KNNAppend(buf[:0], c, k)
			}
		}},
	}
	for _, b := range backends {
		for _, p := range paths {
			t.Run(b.name+"/"+p.name, func(t *testing.T) {
				// AllocsPerRun's own warm-up pass grows buf, stocks the
				// pools and faults every page the queries touch into the
				// cache; the measured passes see the steady state.
				if n := testing.AllocsPerRun(3, func() { p.run(b.r) }); n != 0 {
					t.Errorf("%v allocations per pass of %d queries, want 0", n, len(qs))
				}
			})
		}
	}
}
