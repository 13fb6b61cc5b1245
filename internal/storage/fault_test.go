// The fault tests live in an external test package so they can isolate the
// faulting reads in a child process through indextest.RunIsolated (which
// imports storage and would cycle with an in-package test).
package storage_test

import (
	"os"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/indextest"
	"github.com/wazi-index/wazi/internal/storage"
)

// cutStore builds a store of two full single-slot pages, a then b, whose
// slots each span several OS pages, so a cut inside b's points leaves whole
// OS pages of the mapping past the end of the file. It drops the cache and
// truncates the file to cut(header, slot) bytes, the file header and one
// slot being header and slot bytes long.
func cutStore(t *testing.T, cut func(header, slot int64) int64) (d *storage.DiskStore, a, b storage.PageID, aPts []geom.Point) {
	t.Helper()
	slotCap := 4 * os.Getpagesize() / 16
	d, err := storage.CreatePageFile(t.TempDir()+"/pages", storage.DiskOptions{SlotCap: slotCap, CachePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	header := d.FileBytes()
	pts := make([]geom.Point, 2*slotCap)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: -float64(i)}
	}
	aPts = pts[:slotCap]
	bounds := geom.Rect{MaxX: 1, MaxY: 1}
	a, b = d.Alloc(aPts, bounds), d.Alloc(pts[slotCap:], bounds)
	d.DropCaches()
	if err := os.Truncate(d.Path(), cut(header, (d.FileBytes()-header)/2)); err != nil {
		t.Fatal(err)
	}
	return d, a, b, aPts
}

// mustFault runs read and fails t unless it panics with the runtime error
// of a memory fault, the one SetPanicOnFault turns a SIGBUS into.
func mustFault(t *testing.T, what string, read func()) {
	t.Helper()
	defer func() {
		t.Helper()
		p := recover()
		if _, ok := p.(interface{ Addr() uintptr }); !ok {
			t.Fatalf("%s: recovered %v, want a memory fault", what, p)
		}
	}()
	read()
}

// unlockedWithin fails t unless the store's mutex can be taken within a
// deadline: a fault must not leave it held.
func unlockedWithin(t *testing.T, d *storage.DiskStore) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		d.CacheStats()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("CacheStats blocked: a faulting read left the store mutex held")
	}
}

// scanSum keeps the compiler from dropping a scan's loads.
var scanSum float64

// TestMappedFaultContained cuts a store's page file under it and reads the
// cut pages with debug.SetPanicOnFault set, as waziserve's handlers do:
// every such read must panic instead of killing the process, leave the
// store mutex free, and leave the pages still inside the file readable.
func TestMappedFaultContained(t *testing.T) {
	indextest.RunIsolated(t, func(t *testing.T) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		scan := func(v storage.PageView) {
			for _, p := range v.Pts {
				scanSum += p.X
			}
		}

		// Cut to the file header: the miss path's read of b's slot header
		// faults (a's lies in the zero-filled rest of the file's last OS
		// page).
		d, a, b, aPts := cutStore(t, func(header, _ int64) int64 { return header })
		mustFault(t, "View of a page past the end of the file", func() {
			v := d.View(b)
			defer v.Release()
			scan(v)
		})
		unlockedWithin(t, d)

		// Cut into b's points, keeping its 48-byte slot header and first
		// point: Page's promotion copy and a View's scan of b fault, a still
		// reads exactly.
		d, a, b, aPts = cutStore(t, func(header, slot int64) int64 { return header + slot + 48 + 16 })
		mustFault(t, "Page of a cut page", func() { d.Page(b) })
		unlockedWithin(t, d)
		mustFault(t, "scan of a cut page", func() {
			v := d.View(b)
			defer v.Release()
			scan(v)
		})
		unlockedWithin(t, d)
		v := d.View(a)
		if len(v.Pts) != len(aPts) {
			t.Fatalf("page inside the file: %d points, want %d", len(v.Pts), len(aPts))
		}
		for i := range aPts {
			if v.Pts[i] != aPts[i] {
				t.Fatalf("page inside the file: point %d = %v, want %v", i, v.Pts[i], aPts[i])
			}
		}
		v.Release()
		if n := d.Pins(); n != 0 {
			t.Fatalf("%d pins left after the faults", n)
		}
	})
}

// TestViewAfterCloseIsStorageError: a View after Close released the mapping
// must panic with the store's own error, not read unmapped memory.
func TestViewAfterCloseIsStorageError(t *testing.T) {
	d, err := storage.CreatePageFile(t.TempDir()+"/pages", storage.DiskOptions{SlotCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	id := d.Alloc([]geom.Point{{X: 1, Y: 2}}, geom.Rect{MaxX: 1, MaxY: 1})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "storage:") {
			t.Fatalf("View after Close panicked with %q, want a storage: error", msg)
		}
	}()
	d.View(id)
}
