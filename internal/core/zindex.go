// Package core implements the paper's primary contribution: a generalized
// Z-index whose per-node partition point and child ordering can vary, the
// retrieval-cost model (Eq. 1–5) that scores candidate configurations, the
// greedy workload-aware construction algorithm (Algorithm 3), and the
// look-ahead skipping mechanism (§5, Algorithm 4).
//
// Two build entry points are provided: BuildBase constructs the classic
// Z-index (median splits, "abcd" ordering everywhere), and BuildWaZI
// constructs the workload-aware variant. Both produce the same runtime
// structure, so every query path — with or without skipping — is shared,
// which is exactly what the paper's ablation study (Base, Base+SK, WaZI−SK,
// WaZI) requires.
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/wazi-index/wazi/internal/density"
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/storage"
)

// Ordering is the visit order of the four child cells of an internal node.
// Both orderings preserve the dominance monotonicity of the Z-index (§4.1).
type Ordering uint8

const (
	// OrderABCD visits bottom-left, bottom-right, top-left, top-right — the
	// classic 'Z' pattern (position = 2·bity + bitx).
	OrderABCD Ordering = iota
	// OrderACBD visits bottom-left, top-left, bottom-right, top-right — the
	// transposed 'N' pattern (position = 2·bitx + bity).
	OrderACBD
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	if o == OrderABCD {
		return "abcd"
	}
	return "acbd"
}

// Pos returns the position of quadrant q in the ordering.
func (o Ordering) Pos(q geom.Quadrant) int {
	if o == OrderABCD {
		return int(q) // q = 2·bity + bitx already
	}
	return int((q&1)<<1 | q>>1) // 2·bitx + bity
}

// Quad returns the quadrant at position pos in the ordering. It is the
// inverse of Pos (and, conveniently, the same bit swap).
func (o Ordering) Quad(pos int) geom.Quadrant {
	if o == OrderABCD {
		return geom.Quadrant(pos)
	}
	return geom.Quadrant((pos&1)<<1 | pos>>1)
}

// node is one node of the quaternary tree. A node is either internal
// (leaf == nil, children indexed by ordering position) or a leaf node
// (leaf != nil).
type node struct {
	cell  geom.Rect
	split geom.Point
	order Ordering
	child [4]*node
	leaf  *Leaf
}

// Leaf is a leaf of the Z-index: a bounding rectangle, a data page, the
// doubly-linked leaf list (§3), and the four look-ahead pointers (§5.1).
//
// The page is a sorted run plus a tail: its first sorted points lie inside
// the bounds in geom.CmpXY order (Leaf.slab searches them), and the rest are
// later inserts in arrival order and points with a NaN coordinate.
//
// The bounding rectangle is the leaf's cell (the region of space the leaf is
// responsible for) rather than the tight MBR of its points. This makes the
// rectangle immutable under inserts into the cell, which keeps previously
// built look-ahead pointers safe: structural updates only ever shrink the
// rectangles a pointer jumped over, so a leaf skipped at pointer-build time
// remains guaranteed-irrelevant. See lookahead.go for the invariant.
type Leaf struct {
	bounds geom.Rect
	// pid locates the leaf's data page inside the index's PageStore; n
	// caches its point count so pure projection work (counting, cost
	// evaluation) never faults a page in from disk.
	pid        storage.PageID
	n, sorted  int
	prev, next *Leaf
	ord        int
	la         [4]*Leaf // look-ahead pointers, indexed by criterion
}

// Criterion enumerates the four irrelevancy criteria of §5.1 under which a
// leaf may be skipped during range-query processing.
type Criterion uint8

// The four criteria. Below means the leaf lies entirely below the query
// rectangle, and so on.
const (
	Below Criterion = iota
	Above
	Left
	Right
	numCriteria
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case Below:
		return "below"
	case Above:
		return "above"
	case Left:
		return "left"
	case Right:
		return "right"
	}
	return fmt.Sprintf("Criterion(%d)", uint8(c))
}

// Bounds returns the leaf's bounding rectangle.
func (l *Leaf) Bounds() geom.Rect { return l.bounds }

// Len returns the number of points stored in the leaf's page.
func (l *Leaf) Len() int { return l.n }

// Options configure Z-index construction. The zero value is usable: every
// field has a sensible default applied by fill.
type Options struct {
	// LeafSize is the page capacity L. Default 256 (Table 2).
	LeafSize int
	// Kappa is the number of candidate split points sampled per cell by the
	// greedy construction (κ in Algorithm 3). Default 32.
	Kappa int
	// Alpha is the skip discount α of Eq. 1–5. Zero selects the default:
	// 1e-5 when skipping is enabled (§5.2) and 0.1 otherwise.
	Alpha float64
	// DisableSkipping turns off look-ahead pointer construction and use.
	// The default (false) builds and uses them, as WaZI does.
	DisableSkipping bool
	// Seed seeds candidate sampling and the default density estimator.
	Seed int64
	// Store supplies the PageStore backing the index's clustered pages.
	// Nil selects storage chosen by StoragePath: a fresh RAM-resident
	// store when StoragePath is empty, otherwise a disk-resident store
	// (page file + workload-aware block cache) created at that path.
	Store storage.PageStore
	// StoragePath, when non-empty and Store is nil, creates the
	// disk-resident backend at this path, truncating previous content
	// (builds produce a new page set; warm starts go through
	// LoadWithStore with an adopted store instead).
	StoragePath string
	// StorageCachePages bounds the disk backend's block cache, in pages
	// (default 1024). Ignored for the RAM-resident backend.
	StorageCachePages int
	// ExactCounts replaces the learned estimator — an RFDE forest over the
	// data, the paper's learned component — with exact per-candidate
	// counting. Slower to build; used by tests and the estimator ablation.
	ExactCounts bool
	// DensityOpts configure the default RFDE forest.
	DensityOpts density.Options
	// OrderABCDOnly restricts the greedy construction to the classic
	// "abcd" ordering, isolating the contribution of split-point freedom
	// from ordering freedom (DESIGN.md ablation 4).
	OrderABCDOnly bool
	// MaxDepth bounds tree depth as a degenerate-data guard. Default 48.
	MaxDepth int
}

func (o *Options) fill() {
	if o.LeafSize <= 0 {
		o.LeafSize = 256
	}
	if o.Kappa <= 0 {
		o.Kappa = 32
	}
	if o.Alpha <= 0 {
		if o.DisableSkipping {
			o.Alpha = 0.1
		} else {
			o.Alpha = 1e-5
		}
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 48
	}
	if o.DensityOpts.Trees == 0 {
		o.DensityOpts = density.DefaultOptions()
		o.DensityOpts.Seed = o.Seed + 1
	}
}

// ZIndex is a built Z-index instance (Base or WaZI).
type ZIndex struct {
	root   *node
	head   *Leaf
	bounds geom.Rect
	count  int
	opts   Options
	store  storage.PageStore
	stats  storage.Stats
	// workloadAware records whether the index was built by BuildWaZI; it is
	// reported by Describe and used by the drift advisor.
	workloadAware bool
}

// ErrNoPoints is returned when an index is built over an empty dataset.
var ErrNoPoints = errors.New("core: cannot build index over zero points")

// openStore resolves the configured PageStore: an injected store, a fresh
// disk-resident store at StoragePath, or the RAM-resident default. Callers
// run it after fill so LeafSize is resolved (it sizes the disk slots).
func (o *Options) OpenStore() (storage.PageStore, error) {
	if o.Store != nil {
		return o.Store, nil
	}
	if o.StoragePath != "" {
		return storage.CreatePageFile(o.StoragePath, storage.DiskOptions{
			SlotCap:    o.LeafSize,
			CachePages: o.StorageCachePages,
		})
	}
	return storage.NewMemStore(), nil
}

// reserveStore pre-sizes a store's contiguous arena for the n points a bulk
// build is about to Alloc — a no-op for backends without one (disk pages
// live in fixed slots already). Called by every build entry point so RAM
// builds lay all leaf pages into one flat buffer.
func reserveStore(st storage.PageStore, n int) {
	if r, ok := st.(interface{ Reserve(int) }); ok {
		r.Reserve(n)
	}
}

// adoptStore attaches a resolved store to the index and routes its cache
// counters into the index's Stats.
func (z *ZIndex) adoptStore(st storage.PageStore) {
	z.store = st
	st.SetStatsSink(&z.stats)
}

// CopyTo returns a copy of z, node for node, whose pages live in st, a fresh
// store: each leaf's page is written once with its sorted run and its tail.
// The copy starts with fresh stats. z is only read, so it may keep serving
// queries meanwhile; updates to the copy never reach it.
func (z *ZIndex) CopyTo(st storage.PageStore) *ZIndex {
	c := &ZIndex{bounds: z.bounds, count: z.count, opts: z.opts, workloadAware: z.workloadAware}
	c.adoptStore(st)
	reserveStore(st, z.count)
	c.root = z.copyNode(z.root, st)
	c.structuralChange()
	return c
}

// copyNode copies the subtree under n, writing its leaves' pages to st.
func (z *ZIndex) copyNode(n *node, st storage.PageStore) *node {
	if n == nil {
		return nil
	}
	m := *n
	if l := n.leaf; l != nil {
		v := z.store.View(l.pid)
		m.leaf = &Leaf{bounds: l.bounds, pid: st.Alloc(v.Pts, l.bounds), n: l.n, sorted: l.sorted}
		v.Release()
	}
	for pos, child := range n.child {
		m.child[pos] = z.copyNode(child, st)
	}
	return &m
}

// Stats returns the index's cumulative access counters. The pointer is live:
// callers may Reset it between measurement windows.
func (z *ZIndex) Stats() *storage.Stats { return &z.stats }

// Store returns the PageStore holding the index's clustered pages.
func (z *ZIndex) Store() storage.PageStore { return z.store }

// CacheStats returns the block-cache counters of the index's page store
// (zero-valued except Resident/Capacity for the RAM-resident backend).
func (z *ZIndex) CacheStats() storage.CacheStats { return z.store.CacheStats() }

// DropCaches empties the block cache of a disk-resident index (a no-op on
// the RAM backend), putting it in the state a cold start would see.
// Benchmarks and differential tests use it to force refaults mid-stream.
func (z *ZIndex) DropCaches() {
	if ds, ok := z.store.(*storage.DiskStore); ok {
		ds.DropCaches()
	}
}

// Close releases the page store's backing resources (the page file of a
// disk-resident index). The index must not be used afterwards. Close is a
// no-op for the RAM-resident backend.
func (z *ZIndex) Close() error { return z.store.Close() }

// Len returns the number of indexed points.
func (z *ZIndex) Len() int { return z.count }

// Bounds returns the root cell (the data-space rectangle the index covers).
func (z *ZIndex) Bounds() geom.Rect { return z.bounds }

// Options returns the options the index was built with (after defaulting).
func (z *ZIndex) Options() Options { return z.opts }

// WorkloadAware reports whether the index was built by BuildWaZI.
func (z *ZIndex) WorkloadAware() bool { return z.workloadAware }

// Leaves returns the number of leaves in the leaf list, including empty
// (tombstoned) leaves left behind by deletions.
func (z *ZIndex) Leaves() int {
	n := 0
	for l := z.head; l != nil; l = l.next {
		n++
	}
	return n
}

// Depth returns the height of the tree (a single leaf has depth 1).
func (z *ZIndex) Depth() int { return depth(z.root) }

func depth(n *node) int {
	if n == nil {
		return 0
	}
	if n.leaf != nil {
		return 1
	}
	d := 0
	for _, c := range n.child {
		if cd := depth(c); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Bytes returns the approximate in-memory footprint of the index: tree
// nodes, leaf structures, and the resident data pages (all pages for the
// RAM backend; the block cache for the disk backend). This is the quantity
// reported in Table 5.
func (z *ZIndex) Bytes() int64 {
	var b int64
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.leaf != nil {
			// Leaf struct: bounds + page id/count + list pointers + ord +
			// 4 look-ahead pointers.
			b += 32 + 8*8
			return
		}
		b += 32 + 16 + 1 + 4*8 // cell + split + order + child pointers
		for _, c := range n.child {
			walk(c)
		}
	}
	walk(z.root)
	return b + z.store.Bytes()
}

// Describe returns a one-line human-readable summary of the index.
func (z *ZIndex) Describe() string {
	kind := "Base Z-index"
	if z.workloadAware {
		kind = "WaZI"
	}
	skip := "with skipping"
	if z.opts.DisableSkipping {
		skip = "no skipping"
	}
	return fmt.Sprintf("%s: %d points, %d leaves, depth %d, L=%d, %s",
		kind, z.count, z.Leaves(), z.Depth(), z.opts.LeafSize, skip)
}

// Verify checks the structural invariants (tree, leaf list, counts and,
// with skipping, the look-ahead pointers) and returns the first violation
// found. Tests and failure-injection tests call it.
func (z *ZIndex) Verify() error {
	// Leaf list is consistent with the tree's in-order leaf sequence.
	var fromTree []*Leaf
	var walk func(n *node) error
	walk = func(n *node) error {
		if n == nil {
			return nil
		}
		if n.leaf != nil {
			if !n.cell.ContainsRect(n.leaf.bounds) && n.cell != n.leaf.bounds {
				return fmt.Errorf("leaf bounds %v escape cell %v", n.leaf.bounds, n.cell)
			}
			pg := z.store.Page(n.leaf.pid)
			if pg.Len() != n.leaf.n {
				return fmt.Errorf("leaf count cache %d disagrees with page length %d", n.leaf.n, pg.Len())
			}
			for _, p := range pg.Pts {
				if p == p && !n.leaf.bounds.Contains(p) {
					return fmt.Errorf("point %v outside leaf bounds %v", p, n.leaf.bounds)
				}
			}
			fromTree = append(fromTree, n.leaf)
			return nil
		}
		if !n.cell.Contains(n.split) {
			return fmt.Errorf("split %v outside cell %v", n.split, n.cell)
		}
		for pos := 0; pos < 4; pos++ {
			if err := walk(n.child[pos]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(z.root); err != nil {
		return err
	}
	i, total := 0, 0
	var prev *Leaf
	for l := z.head; l != nil; l = l.next {
		if i >= len(fromTree) || fromTree[i] != l {
			return fmt.Errorf("leaf list diverges from tree order at position %d", i)
		}
		if l.prev != prev {
			return fmt.Errorf("broken prev pointer at ord %d", l.ord)
		}
		if l.ord != i {
			return fmt.Errorf("leaf ord %d at position %d", l.ord, i)
		}
		total += l.n
		prev = l
		i++
	}
	if i != len(fromTree) {
		return fmt.Errorf("leaf list shorter (%d) than tree leaves (%d)", i, len(fromTree))
	}
	if total != z.count {
		return fmt.Errorf("count %d != points in pages %d", z.count, total)
	}
	if !z.opts.DisableSkipping {
		if err := z.checkLookaheadInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// infCost is a sentinel larger than any achievable retrieval cost.
const infCost = math.MaxFloat64
