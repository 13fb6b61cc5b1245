// Package wazi implements WaZI, a learned and workload-aware variant of the
// Z-index for two-dimensional point data (Pai, Mathioudakis & Wang, EDBT
// 2024). A WaZI index jointly optimizes its storage layout and search
// structure for a given dataset and an anticipated range-query workload:
// the split point and child ordering of every node of the generalized
// Z-index are chosen to minimize a retrieval-cost model, and a look-ahead
// pointer mechanism skips runs of irrelevant pages during range scans.
//
// Basic usage:
//
//	idx, err := wazi.NewWorkloadAware(points, anticipatedQueries)
//	if err != nil { ... }
//	hits := idx.RangeQuery(wazi.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.4, MaxY: 0.3})
//
// Without a workload, New builds the classic (median-split, "abcd"-ordered)
// base Z-index, which is still a competent workload-agnostic spatial index
// and is the Base baseline of the paper's evaluation.
//
// The index supports range, point, and k-nearest-neighbour queries, point
// inserts and deletes, serialization (Save/Load), and detailed access
// statistics for performance analysis. For concurrent reads and writes,
// partition the data across per-shard indexes with Sharded, which adds
// lock-free reads, fan-out query execution and zero-downtime
// drift-triggered rebuilds on top.
package wazi

import (
	"io"
	"os"

	"github.com/wazi-index/wazi/internal/core"
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/storage"
)

// Point is a location in the two-dimensional data space.
type Point = geom.Point

// Rect is a closed axis-aligned rectangle; range queries are Rects.
type Rect = geom.Rect

// Stats holds cumulative access counters (pages scanned, bounding boxes
// checked, points filtered, look-ahead jumps, block-cache hits/misses/
// evictions, ...).
type Stats = storage.Stats

// CacheStats holds the block-cache counters of a disk-resident index.
type CacheStats = storage.CacheStats

// ErrNoPoints is returned when an index is built over an empty dataset.
var ErrNoPoints = core.ErrNoPoints

// NewRect returns the rectangle spanned by two opposite corners.
func NewRect(a, b Point) Rect { return geom.NewRect(a, b) }

// Index is a built Z-index instance — either workload-aware (WaZI) or the
// base variant. Queries may run from multiple goroutines as long as no
// Insert or Delete runs concurrently; for mixed read/write concurrency see
// Sharded.
type Index struct {
	z *core.ZIndex
}

// config collects option values before they are translated to the internal
// build options.
type config struct {
	leafSize    int
	kappa       int
	alpha       float64
	noSkipping  bool
	seed        int64
	exactCounts bool
	storage     Storage
}

// Storage selects the page-store backend holding an index's clustered leaf
// pages. The zero value is the RAM-resident default (the pre-existing
// behavior). Setting Path selects the disk-resident backend: leaf pages
// live in a page file at Path (created by builds, truncating previous
// content) behind a workload-aware block cache, so the index's memory
// footprint is the tree plus the cache rather than the full dataset. See
// docs/STORAGE.md.
type Storage struct {
	// Path of the page file. Empty selects the RAM-resident backend.
	Path string
	// CachePages bounds the block cache in pages (default 1024).
	CachePages int
}

// Option customizes index construction.
type Option func(*config)

// WithLeafSize sets the page capacity L (default 256, as in the paper).
func WithLeafSize(n int) Option { return func(c *config) { c.leafSize = n } }

// WithCandidates sets κ, the number of candidate split points sampled per
// cell during workload-aware construction (default 32).
func WithCandidates(kappa int) Option { return func(c *config) { c.kappa = kappa } }

// WithAlpha overrides the skip-discount α of the retrieval-cost model. The
// default is 1e-5 with skipping enabled and 0.1 without, following §5.2.
func WithAlpha(alpha float64) Option { return func(c *config) { c.alpha = alpha } }

// WithoutSkipping disables construction and use of look-ahead pointers.
// Queries fall back to next-pointer scanning with bounding-box checks.
func WithoutSkipping() Option { return func(c *config) { c.noSkipping = true } }

// WithSeed fixes the seed of the randomized construction steps (candidate
// sampling, density-estimator splits), making builds reproducible.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithExactCounts replaces the learned density estimator with exact
// counting during construction: slower builds, noise-free cost evaluation.
func WithExactCounts() Option { return func(c *config) { c.exactCounts = true } }

// WithStorage selects the page-store backend (see Storage). Pass a Storage
// with a non-empty Path for the disk-resident backend:
//
//	idx, err := wazi.NewWorkloadAware(pts, qs,
//	    wazi.WithStorage(wazi.Storage{Path: "idx.pages", CachePages: 4096}))
//
// Indexes with disk storage should be Closed when done.
func WithStorage(s Storage) Option { return func(c *config) { c.storage = s } }

func buildOptions(opts []Option) core.Options {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return core.Options{
		LeafSize:          c.leafSize,
		Kappa:             c.kappa,
		Alpha:             c.alpha,
		DisableSkipping:   c.noSkipping,
		Seed:              c.seed,
		ExactCounts:       c.exactCounts,
		StoragePath:       c.storage.Path,
		StorageCachePages: c.storage.CachePages,
	}
}

// New builds the base Z-index over points: median splits and "abcd"
// ordering everywhere, with look-ahead pointers enabled.
func New(points []Point, opts ...Option) (*Index, error) {
	z, err := core.BuildBase(points, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Index{z: z}, nil
}

// NewWorkloadAware builds a WaZI index: construction greedily chooses each
// node's split point and child ordering to minimize the retrieval cost of
// the anticipated workload (Algorithm 3 of the paper). The workload can be
// historical query logs or representative queries; an empty workload
// degrades to the base configuration.
func NewWorkloadAware(points []Point, workload []Rect, opts ...Option) (*Index, error) {
	z, err := core.BuildWaZI(points, workload, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Index{z: z}, nil
}

// Load restores an index previously written with Save. Options may select
// a storage backend for the restored pages (WithStorage with a Path loads
// the snapshot into a fresh page file — the cold migration path between
// backends; pass the snapshot's WithLeafSize too so disk slots are sized
// to its leaves). Other options are ignored, since the snapshot fixes the
// build-time configuration.
func Load(r io.Reader, opts ...Option) (*Index, error) {
	o := buildOptions(opts)
	st, err := o.OpenStore()
	if err != nil {
		return nil, err
	}
	z, err := core.LoadWithStore(r, st)
	if err != nil {
		st.Close()
		if ds, ok := st.(*storage.DiskStore); ok {
			// Don't leave the freshly truncated page file behind a failed
			// load at the user's path.
			os.Remove(ds.Path())
		}
		return nil, err
	}
	return &Index{z: z}, nil
}

// Save serializes the index so it can be rebuilt offline once and deployed
// with Load — the deployment model §6.5 recommends for WaZI. The snapshot
// embeds the leaf pages and is portable across storage backends.
func (x *Index) Save(w io.Writer) error { return x.z.Save(w) }

// Close releases the index's storage backend (the page file of a
// disk-resident index). It is a no-op for the default RAM-resident backend.
// The index must not be used after Close.
func (x *Index) Close() error { return x.z.Close() }

// CacheStats returns the block-cache counters of a disk-resident index
// (zero-valued except Resident/Capacity for the RAM backend).
func (x *Index) CacheStats() CacheStats { return x.z.CacheStats() }

// DropCaches empties the block cache of a disk-resident index (a no-op for
// the RAM backend), putting it in the state a cold start would see.
func (x *Index) DropCaches() { x.z.DropCaches() }

// RangeQuery returns all indexed points inside the closed rectangle r.
func (x *Index) RangeQuery(r Rect) []Point { return x.z.RangeQuery(r) }

// RangeQueryAppend appends the points inside r to dst, avoiding per-query
// allocations for callers that reuse buffers.
func (x *Index) RangeQueryAppend(dst []Point, r Rect) []Point {
	return x.z.RangeQueryAppend(dst, r)
}

// RangeCount returns the number of points inside r without materializing
// them.
func (x *Index) RangeCount(r Rect) int { return x.z.RangeCount(r) }

// PointQuery reports whether a point equal to p is indexed.
func (x *Index) PointQuery(p Point) bool { return x.z.PointQuery(p) }

// KNN returns the k points nearest to q, closest first, by decomposing the
// query into range queries (§6.3 of the paper). Equidistant neighbours are
// ordered by (distance, X, Y). A non-finite q has no neighbours.
func (x *Index) KNN(q Point, k int) []Point { return x.z.KNN(q, k) }

// KNNAppend appends the k points nearest to q to dst, closest first,
// avoiding per-query allocations for callers that reuse buffers.
func (x *Index) KNNAppend(dst []Point, q Point, k int) []Point {
	return x.z.KNNAppend(dst, q, k)
}

// Insert adds p to the index.
func (x *Index) Insert(p Point) { x.z.Insert(p) }

// Delete removes one point equal to p, reporting whether one was found.
func (x *Index) Delete(p Point) bool { return x.z.Delete(p) }

// Len returns the number of indexed points.
func (x *Index) Len() int { return x.z.Len() }

// Bounds returns the data-space rectangle covered by the index.
func (x *Index) Bounds() Rect { return x.z.Bounds() }

// Bytes returns the approximate in-memory footprint, including data pages.
func (x *Index) Bytes() int64 { return x.z.Bytes() }

// Stats returns the live cumulative access counters. Reset them between
// measurement windows with Stats().Reset().
func (x *Index) Stats() *Stats { return x.z.Stats() }

// WorkloadAware reports whether the index was built by NewWorkloadAware.
func (x *Index) WorkloadAware() bool { return x.z.WorkloadAware() }

// Describe returns a one-line human-readable summary.
func (x *Index) Describe() string { return x.z.Describe() }

// Points returns a copy of all indexed points in storage order; useful as
// input to a rebuild after workload drift.
func (x *Index) Points() []Point { return x.z.Points() }

// WorkloadCost evaluates the paper's retrieval-cost model (Eq. 3) for a
// workload against this index's layout: the expected number of points
// touched per the model, with skipped pages discounted by alpha. Lower is
// better. It is the quantity WaZI's construction minimizes, exposed for
// monitoring and rebuild decisions.
func (x *Index) WorkloadCost(workload []Rect, alpha float64) float64 {
	return x.z.WorkloadCost(workload, alpha)
}
