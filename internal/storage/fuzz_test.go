package storage

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
)

// FuzzViewInvalidation fuzzes the ordering of borrowed-view lifetimes
// against every invalidation source the disk store has — Update, Free,
// eviction (2-page cache), DropCaches, file growth (mapping growth), and
// store Close with views still pinned. Each page carries sentinel content;
// a pinned view must read back exactly the bytes it was pinned over no
// matter which invalidations happen around it, and the pin ledger must
// drain to zero with the mappings reaped at the end.
func FuzzViewInvalidation(f *testing.F) {
	f.Add([]byte{0, 6, 12, 3, 18, 9, 4, 24, 5, 1, 30, 2, 36, 3, 42, 4})
	f.Add([]byte{3, 3, 3, 5, 2, 2, 4, 4, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 129, 64, 33, 17, 99})
	f.Fuzz(runViewInvalidation)
}

func runViewInvalidation(t *testing.T, ops []byte) {
	d, err := CreatePageFile(filepath.Join(t.TempDir(), "fuzz.pages"),
		DiskOptions{SlotCap: 4, CachePages: 2})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			d.Close()
		}
	}()
	b := geom.Rect{MaxX: 1, MaxY: 1}

	type heldView struct {
		v    PageView
		id   PageID
		want []geom.Point
	}
	var (
		live   []PageID
		model  = map[PageID][]geom.Point{}
		pinned []heldView
		tag    int
	)
	sentinel := func(n int) []geom.Point {
		tag++
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: float64(tag), Y: float64(i)}
		}
		return pts
	}
	isPinned := func(id PageID) bool {
		for _, h := range pinned {
			if h.id == id {
				return true
			}
		}
		return false
	}
	checkView := func(h heldView, ctx string) {
		t.Helper()
		if len(h.v.Pts) != len(h.want) {
			t.Fatalf("%s: view of page %d has %d points, want %d", ctx, h.id, len(h.v.Pts), len(h.want))
		}
		for i := range h.want {
			if h.v.Pts[i] != h.want[i] {
				t.Fatalf("%s: view of page %d: point %d = %v, want %v (bytes changed under a pin)",
					ctx, h.id, i, h.v.Pts[i], h.want[i])
			}
		}
	}
	// pickUnpinned selects a live page with no pinned view: Update/Free of
	// a page under its own pinned view is the documented caller hazard, so
	// the fuzzer stays on the legal surface.
	pickUnpinned := func(sel byte) (PageID, bool) {
		for off := 0; off < len(live); off++ {
			id := live[(int(sel)+off)%len(live)]
			if !isPinned(id) {
				return id, true
			}
		}
		return NoPage, false
	}

	for _, op := range ops {
		sel := op >> 3
		switch op % 6 {
		case 0: // alloc (sizes 0..9 cover empty, single-slot, and chains)
			pts := sentinel(int(sel) % 10)
			id := d.Alloc(pts, b)
			live = append(live, id)
			model[id] = pts
		case 1: // update an unpinned page, possibly re-chaining it
			if id, ok := pickUnpinned(sel); ok {
				pts := sentinel(int(sel) % 10)
				d.Update(id, pts, b)
				model[id] = pts
			}
		case 2: // free an unpinned page (parks slots while views pin others)
			if id, ok := pickUnpinned(sel); ok {
				d.Free(id)
				delete(model, id)
				for i, l := range live {
					if l == id {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
		case 3: // pin a view over any live page
			if len(live) > 0 && len(pinned) < 6 {
				id := live[int(sel)%len(live)]
				h := heldView{v: d.View(id), id: id, want: model[id]}
				checkView(h, "at pin time")
				pinned = append(pinned, h)
			}
		case 4: // release the oldest pin, verifying its bytes never moved
			if len(pinned) > 0 {
				h := pinned[0]
				pinned = pinned[1:]
				checkView(h, "at release time")
				h.v.Release()
			}
		case 5: // invalidate: every cached page detaches
			d.DropCaches()
		}
	}

	// Every surviving page must read back its model content past all the
	// churn above, through both read surfaces.
	for _, id := range live {
		h := heldView{v: d.View(id), id: id, want: model[id]}
		checkView(h, "final sweep")
		h.v.Release()
		if got, want := len(d.Page(id).Pts), len(model[id]); got != want {
			t.Fatalf("final sweep: Page(%d) has %d points, want %d", id, got, want)
		}
	}

	// Close with views still pinned: the recycle guard defers mapping
	// teardown to the last unpin, so pinned views must stay readable even
	// after the store is closed, and the reap must fire exactly when the
	// ledger drains.
	closed = true
	if err := d.Close(); err != nil {
		t.Fatalf("Close with %d pins: %v", len(pinned), err)
	}
	for _, h := range pinned {
		checkView(h, "after Close, before release")
		h.v.Release()
	}
	pinned = nil
	if n := d.Pins(); n != 0 {
		t.Fatalf("pin ledger did not drain: %d left", n)
	}
	d.mu.Lock()
	reaped, maps := d.reaped, len(d.maps)
	d.mu.Unlock()
	if !reaped || maps != 0 {
		t.Fatalf("mappings not reaped after close + last unpin (reaped=%v, %d maps)", reaped, maps)
	}
}

// FuzzOpenPageFile fuzzes the warm-start adoption path: OpenPageFile over
// arbitrary bytes must refuse corrupt files with an error — never panic —
// and any file it does accept must be fully traversable (every live page
// readable) without panicking either, since post-open I/O panics are the
// documented contract for validated files only.
func FuzzOpenPageFile(f *testing.F) {
	dir, err := os.MkdirTemp("", "wazi-fuzz-pages")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })
	seedPath := filepath.Join(dir, "seed.pages")
	d, err := CreatePageFile(seedPath, DiskOptions{SlotCap: 4, CachePages: 4})
	if err != nil {
		f.Fatal(err)
	}
	b := geom.Rect{MaxX: 1, MaxY: 1}
	d.Alloc([]geom.Point{{X: 0.1, Y: 0.2}, {X: 0.3, Y: 0.4}}, b)
	chained := d.Alloc(make([]geom.Point, 11), b) // 3-slot chain
	d.Alloc(nil, b)                               // empty page
	d.Free(chained)
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	flipped := append([]byte(nil), seed...)
	flipped[20] ^= 0x01 // slot-count field
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.pages")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := OpenPageFile(path, DiskOptions{CachePages: 8})
		if err != nil {
			return
		}
		defer st.Close()
		live := 0
		for i := int32(0); i < st.slots; i++ {
			id := PageID(i)
			if n, ok := st.PageLen(id); ok {
				live++
				pg := st.Page(id)
				if pg.Len() != n {
					t.Fatalf("PageLen(%d) = %d but Page holds %d points", id, n, pg.Len())
				}
			}
		}
		if live != st.PageCount() {
			t.Fatalf("PageCount = %d but %d live heads found", st.PageCount(), live)
		}
	})
}
