package core_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/wazi-index/wazi/internal/core"
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/index"
	"github.com/wazi-index/wazi/internal/indextest"
	"github.com/wazi-index/wazi/internal/storage"
)

// diskStores hands each differential build a fresh disk store in the test's
// temp dir. A deliberately small cache forces faults and evictions, so the
// differential checks cover the cache-miss path, not just warm hits.
func diskStores(t *testing.T) func() storage.PageStore {
	dir := t.TempDir()
	n := 0
	return func() storage.PageStore {
		n++
		st, err := storage.CreatePageFile(
			filepath.Join(dir, fmt.Sprintf("diff-%03d.pages", n)),
			storage.DiskOptions{SlotCap: 64, CachePages: 24, HistWindow: 128},
		)
		if err != nil {
			panic(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
}

func TestDifferentialWaZI(t *testing.T) {
	newDisk := diskStores(t)
	opts := func() core.Options {
		return core.Options{LeafSize: 64, Seed: 7, ExactCounts: true}
	}
	indextest.Differential(t,
		func(pts []geom.Point, qs []geom.Rect) index.Index {
			z, err := core.BuildWaZI(pts, qs, opts())
			if err != nil {
				panic(err)
			}
			return z
		},
		func(pts []geom.Point, qs []geom.Rect) index.Index {
			o := opts()
			o.Store = newDisk()
			z, err := core.BuildWaZI(pts, qs, o)
			if err != nil {
				panic(err)
			}
			return z
		})
}

// TestDifferentialWaZITinyCache reruns the full differential suite with a
// one-page block cache: every fault evicts, so borrowed views constantly
// straddle eviction.
func TestDifferentialWaZITinyCache(t *testing.T) {
	dir := t.TempDir()
	n := 0
	opts := func() core.Options {
		return core.Options{LeafSize: 64, Seed: 7, ExactCounts: true}
	}
	indextest.Differential(t,
		func(pts []geom.Point, qs []geom.Rect) index.Index {
			z, err := core.BuildWaZI(pts, qs, opts())
			if err != nil {
				panic(err)
			}
			return z
		},
		func(pts []geom.Point, qs []geom.Rect) index.Index {
			n++
			st, err := storage.CreatePageFile(
				filepath.Join(dir, fmt.Sprintf("tiny-%03d.pages", n)),
				storage.DiskOptions{SlotCap: 64, CachePages: 1, HistWindow: 128},
			)
			if err != nil {
				panic(err)
			}
			t.Cleanup(func() { st.Close() })
			o := opts()
			o.Store = st
			z, err := core.BuildWaZI(pts, qs, o)
			if err != nil {
				panic(err)
			}
			return z
		})
}

func TestDifferentialBase(t *testing.T) {
	newDisk := diskStores(t)
	indextest.Differential(t,
		func(pts []geom.Point, qs []geom.Rect) index.Index {
			z, err := core.BuildBase(pts, core.Options{LeafSize: 64, Seed: 7})
			if err != nil {
				panic(err)
			}
			return z
		},
		func(pts []geom.Point, qs []geom.Rect) index.Index {
			z, err := core.BuildBase(pts, core.Options{LeafSize: 64, Seed: 7, Store: newDisk()})
			if err != nil {
				panic(err)
			}
			return z
		})
}
