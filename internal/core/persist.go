package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/storage"
)

// This file implements index persistence: a built index serializes to a
// flat preorder record stream (gob-encoded) and restores without
// re-running construction. The derived structures — leaf list, ords,
// look-ahead pointers — are rebuilt on load, which is linear in the index
// size and avoids serializing cyclic pointer graphs.
//
// Two snapshot flavours exist:
//
//   - inline (version 1): every leaf record carries its points. Portable —
//     Load can restore it into any page store.
//   - attached (version 2): leaf records carry PageIDs into an external
//     page store (the disk backend's page file). Written by SaveAttached,
//     restored by LoadWithStore over a store adopted with
//     storage.OpenPageFile — the warm-start path that never rewrites the
//     data pages and reads each once, to measure its sorted run.

// Snapshot format versions.
const (
	snapshotVersion         = 1 // inline points
	snapshotVersionAttached = 2 // page references into an external store
)

type snapshot struct {
	Version       int
	LeafSize      int
	Alpha         float64
	Skipping      bool
	WorkloadAware bool
	Count         int
	Bounds        geom.Rect
	Nodes         []nodeRecord
}

// nodeRecord is one preorder tree node. Children are recorded by a
// presence mask over ordering positions; subtrees follow in position order.
// Leaf records carry Points (inline snapshots) or PageID (attached).
type nodeRecord struct {
	Leaf      bool
	Cell      geom.Rect
	Split     geom.Point
	Order     Ordering
	ChildMask uint8
	Points    []geom.Point
	PageID    int32
}

// Save serializes the index to w as an inline snapshot: leaf pages are
// embedded, so the stream is self-contained and portable across storage
// backends.
func (z *ZIndex) Save(w io.Writer) error {
	return z.save(w, false)
}

// SaveAttached serializes the index to w as an attached snapshot: leaf
// records reference pages by id in the index's page store, whose backing
// file is synced and left in place. A later LoadWithStore over the adopted
// store restores the index without rewriting or reading the data pages.
func (z *ZIndex) SaveAttached(w io.Writer) error {
	if err := z.save(w, true); err != nil {
		return err
	}
	return z.store.Sync()
}

func (z *ZIndex) save(w io.Writer, attached bool) error {
	s := snapshot{
		Version:       snapshotVersion,
		LeafSize:      z.opts.LeafSize,
		Alpha:         z.opts.Alpha,
		Skipping:      !z.opts.DisableSkipping,
		WorkloadAware: z.workloadAware,
		Count:         z.count,
		Bounds:        z.bounds,
	}
	if attached {
		s.Version = snapshotVersionAttached
	}
	var walk func(n *node)
	walk = func(n *node) {
		rec := nodeRecord{Cell: n.cell}
		if n.leaf != nil {
			rec.Leaf = true
			if attached {
				rec.PageID = int32(n.leaf.pid)
			} else {
				rec.Points = z.store.Page(n.leaf.pid).Pts
			}
			s.Nodes = append(s.Nodes, rec)
			return
		}
		rec.Split = n.split
		rec.Order = n.order
		for pos := 0; pos < 4; pos++ {
			if n.child[pos] != nil {
				rec.ChildMask |= 1 << uint(pos)
			}
		}
		s.Nodes = append(s.Nodes, rec)
		for pos := 0; pos < 4; pos++ {
			if n.child[pos] != nil {
				walk(n.child[pos])
			}
		}
	}
	walk(z.root)
	return gob.NewEncoder(w).Encode(&s)
}

// Load restores an index previously written by Save, onto a fresh
// RAM-resident page store. Attached snapshots are refused: they need their
// page store, via LoadWithStore.
func Load(r io.Reader) (*ZIndex, error) {
	return LoadWithStore(r, nil)
}

// LoadWithStore restores an index onto st (nil selects a fresh RAM-resident
// store). Inline snapshots have their pages allocated into st; attached
// snapshots adopt st's existing pages by id — st must be the store whose
// page file the snapshot was saved against (storage.OpenPageFile), and every
// page reference is validated before use. Corrupt input of either flavour
// is reported as an error, never a panic.
func LoadWithStore(r io.Reader, st storage.PageStore) (*ZIndex, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	attached := s.Version == snapshotVersionAttached
	if s.Version != snapshotVersion && !attached {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", s.Version)
	}
	if attached && st == nil {
		return nil, fmt.Errorf("core: attached snapshot requires its page store (use LoadWithStore)")
	}
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("core: snapshot has no nodes")
	}
	if s.Count < 0 {
		return nil, fmt.Errorf("core: snapshot has negative count %d", s.Count)
	}
	if st == nil {
		st = storage.NewMemStore()
	}
	if attached && st.PageCount() == 0 {
		// Catch the "attached snapshot, wrong store" mistake up front with
		// an actionable message instead of a per-page reference failure.
		// An attached snapshot always references at least one page.
		return nil, fmt.Errorf("core: attached snapshot requires the page store it was saved against (adopt its page file with storage.OpenPageFile)")
	}
	z := &ZIndex{
		bounds:        s.Bounds,
		count:         s.Count,
		workloadAware: s.WorkloadAware,
		opts: Options{
			LeafSize:        s.LeafSize,
			Alpha:           s.Alpha,
			DisableSkipping: !s.Skipping,
		},
	}
	z.opts.fill()
	z.adoptStore(st)
	pos := 0
	var build func() (*node, error)
	build = func() (*node, error) {
		if pos >= len(s.Nodes) {
			return nil, fmt.Errorf("core: snapshot truncated at record %d", pos)
		}
		rec := s.Nodes[pos]
		pos++
		n := &node{cell: rec.Cell}
		if rec.Leaf {
			if attached {
				id := storage.PageID(rec.PageID)
				count, ok := st.PageLen(id)
				if !ok {
					return nil, fmt.Errorf("core: snapshot references page %d absent from the store", rec.PageID)
				}
				n.leaf = &Leaf{bounds: rec.Cell, pid: id, n: count}
			} else {
				n.leaf = newLeaf(st, rec.Cell, rec.Points)
			}
			return n, nil
		}
		n.split = rec.Split
		n.order = rec.Order
		if n.order != OrderABCD && n.order != OrderACBD {
			return nil, fmt.Errorf("core: invalid ordering %d in snapshot", n.order)
		}
		for p := 0; p < 4; p++ {
			if rec.ChildMask&(1<<uint(p)) == 0 {
				continue
			}
			child, err := build()
			if err != nil {
				return nil, err
			}
			n.child[p] = child
		}
		return n, nil
	}
	root, err := build()
	if err != nil {
		return nil, err
	}
	if pos != len(s.Nodes) {
		return nil, fmt.Errorf("core: %d trailing records in snapshot", len(s.Nodes)-pos)
	}
	z.root = root
	z.rebuildLeafList()
	if !z.opts.DisableSkipping {
		z.rebuildLookahead()
	}
	// Trust but verify: a corrupted snapshot should fail loudly now, not
	// during a later query. Attached leaves were sized from the store's
	// slot headers, so this also cross-checks snapshot against page file.
	total := 0
	seen := make(map[storage.PageID]bool)
	for l := z.head; l != nil; l = l.next {
		if attached && seen[l.pid] {
			return nil, fmt.Errorf("core: snapshot references page %d twice", l.pid)
		}
		seen[l.pid] = true
		total += l.n
		if attached {
			v := st.View(l.pid)
			l.sorted = runLen(v.Pts, l.bounds)
			v.Release()
		}
	}
	if total != z.count {
		return nil, fmt.Errorf("core: snapshot count %d disagrees with stored points %d", z.count, total)
	}
	return z, nil
}

// runLen returns the length of the longest prefix of pts inside cell and in
// geom.CmpXY order: an attached leaf's run, measured rather than trusted, so
// a page file written in any order still answers exactly.
func runLen(pts []geom.Point, cell geom.Rect) int {
	for i, p := range pts {
		if !cell.Contains(p) || i > 0 && geom.CmpXY(pts[i-1], p) > 0 {
			return i
		}
	}
	return len(pts)
}
