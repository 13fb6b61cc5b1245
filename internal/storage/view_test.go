package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"github.com/wazi-index/wazi/internal/geom"
)

func TestViewRoundTrip(t *testing.T) {
	d := tmpStore(t, DiskOptions{SlotCap: 8, CachePages: 4})
	b := geom.Rect{MaxX: 1, MaxY: 1}
	cases := [][]geom.Point{
		somePoints(5, 1),
		somePoints(8, 2),
		somePoints(9, 3),  // 2-slot chain
		somePoints(40, 4), // 5-slot chain
		nil,
	}
	ids := make([]PageID, len(cases))
	for i, pts := range cases {
		ids[i] = d.Alloc(pts, b)
	}
	check := func(ctx string) {
		for i, pts := range cases {
			v := d.View(ids[i])
			samePts(t, v.Pts, pts, ctx)
			v.Release()
			v.Release() // double release is harmless
		}
		if n := d.Pins(); n != 0 {
			t.Fatalf("%s: %d pins outstanding after releases", ctx, n)
		}
	}
	check("warm view")
	d.DropCaches()
	check("cold view")
}

// TestViewAliasesMapping pins the zero-copy property itself: a single-slot
// page's view must point into the file mapping, not at a decoded heap copy.
func TestViewAliasesMapping(t *testing.T) {
	d := tmpStore(t, DiskOptions{SlotCap: 8, CachePages: 4})
	b := geom.Rect{MaxX: 1, MaxY: 1}
	id := d.Alloc(somePoints(8, 1), b)
	d.DropCaches()

	inMapping := func(p unsafe.Pointer) bool {
		for _, m := range d.maps {
			base := uintptr(unsafe.Pointer(&m.data[0]))
			if uintptr(p) >= base && uintptr(p) < base+uintptr(len(m.data)) {
				return true
			}
		}
		return false
	}
	v := d.View(id)
	if !inMapping(unsafe.Pointer(&v.Pts[0])) {
		t.Fatal("cold view of a single-slot page is a heap copy, not mapped file bytes")
	}
	v.Release()

	// The entry Alloc itself caches must be zero-copy too.
	id2 := d.Alloc(somePoints(4, 2), b)
	v2 := d.View(id2)
	if !inMapping(unsafe.Pointer(&v2.Pts[0])) {
		t.Fatal("Alloc-warmed view is a heap copy, not mapped file bytes")
	}
	v2.Release()

	// Chained pages cannot be contiguous in the file: they must decode.
	chained := d.Alloc(somePoints(20, 3), b)
	d.DropCaches()
	v3 := d.View(chained)
	if inMapping(unsafe.Pointer(&v3.Pts[0])) {
		t.Fatal("chained page view claims to alias the mapping; chains are not contiguous")
	}
	samePts(t, v3.Pts, somePoints(20, 3), "chained view")
	v3.Release()
}

// TestRecycleGuard pins the invariant that makes borrowed views safe: while
// any view is pinned, freed slots are parked, not recycled — new
// allocations extend the file — and recycling resumes after the last
// release.
func TestRecycleGuard(t *testing.T) {
	d := tmpStore(t, DiskOptions{SlotCap: 4, CachePages: 8})
	b := geom.Rect{MaxX: 1, MaxY: 1}
	aPts := somePoints(4, 1)
	a := d.Alloc(aPts, b)
	victim := d.Alloc(somePoints(4, 2), b)
	d.DropCaches()

	v := d.View(a)
	d.Free(victim)
	before := d.FileBytes()
	d.Alloc(somePoints(4, 3), b)
	if d.FileBytes() == before {
		t.Fatal("freed slot recycled while a view was pinned")
	}
	samePts(t, v.Pts, aPts, "pinned view across Free+Alloc")
	v.Release()
	if d.Pins() != 0 {
		t.Fatalf("pins = %d after release", d.Pins())
	}

	before = d.FileBytes()
	d.Alloc(somePoints(4, 4), b) // victim's slot is free again
	if d.FileBytes() != before {
		t.Fatal("freed slot not recycled once the last view released")
	}
}

// TestViewSurvivesEvictionAndDropCaches holds a pinned view while its cache
// entry is evicted, dropped, and its neighbors churn: the borrowed bytes
// must stay intact.
func TestViewSurvivesEvictionAndDropCaches(t *testing.T) {
	d := tmpStore(t, DiskOptions{SlotCap: 8, CachePages: 2})
	b := geom.Rect{MaxX: 1, MaxY: 1}
	aPts := somePoints(8, 1)
	a := d.Alloc(aPts, b)
	d.DropCaches()

	v := d.View(a)
	for i := 0; i < 16; i++ { // flood a 2-page cache
		id := d.Alloc(somePoints(8, int64(100+i)), b)
		d.Page(id)
	}
	samePts(t, v.Pts, aPts, "pinned view across eviction pressure")
	d.DropCaches()
	samePts(t, v.Pts, aPts, "pinned view across DropCaches")
	v.Release()

	v2 := d.View(a) // refault after everything was dropped
	samePts(t, v2.Pts, aPts, "refaulted view")
	v2.Release()
}

// TestPagePromotesMappedEntry pins Page's mutable-staging contract: the
// returned page must be a private heap copy (writing through a read-only
// mapping would fault the process), and the staged mutation must
// round-trip through Update.
func TestPagePromotesMappedEntry(t *testing.T) {
	d := tmpStore(t, DiskOptions{SlotCap: 8, CachePages: 4})
	b := geom.Rect{MaxX: 1, MaxY: 1}
	id := d.Alloc(somePoints(8, 1), b)
	d.DropCaches()

	pg := d.Page(id)
	pg.Pts[0] = geom.Point{X: 9, Y: 9} // must not fault: promoted to heap
	d.Update(id, pg.Pts, b)
	d.DropCaches()
	v := d.View(id)
	if v.Pts[0] != (geom.Point{X: 9, Y: 9}) {
		t.Fatalf("staged mutation lost: point 0 = %v", v.Pts[0])
	}
	v.Release()
}

// TestCacheBytesExactForChains pins the accounting fix: a multi-slot chain
// must be counted at its full decoded size, not one slot's worth; a
// single-slot page counts its full size once Page promoted it to the heap,
// and bookkeeping only while it is zero-copy (its points are file bytes,
// not cache heap).
func TestCacheBytesExactForChains(t *testing.T) {
	b := geom.Rect{MaxX: 1, MaxY: 1}
	d := tmpStore(t, DiskOptions{SlotCap: 8, CachePages: 8})
	d.Alloc(somePoints(40, 1), b) // 5-slot chain
	d.Alloc(somePoints(5, 2), b)  // single slot
	d.DropCaches()
	d.Page(PageID(0)) // chained: decoded to heap
	v := d.View(PageID(5))
	v.Release() // single slot: zero-copy, counted as bookkeeping only
	want := int64(40*pointSize + 2*pageOverheadBytes)
	if got := d.Bytes(); got != want {
		t.Fatalf("cache bytes = %d, want %d (chained page must count all %d points, zero-copy page none)", got, want, 40)
	}
	d.Page(PageID(5)) // promoted to a heap copy
	want += 5 * pointSize
	if got := d.Bytes(); got != want {
		t.Fatalf("cache bytes after promotion = %d, want %d", got, want)
	}
}

// TestSlotCapReopen pins the reopen contract: the header's slot capacity is
// authoritative — SlotCap 0 adopts it, a matching explicit value is
// accepted, and a disagreeing explicit value is refused with an error
// instead of silently mis-addressing every slot.
func TestSlotCapReopen(t *testing.T) {
	path := t.TempDir() + "/pages"
	d, err := CreatePageFile(path, DiskOptions{SlotCap: 32, CachePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := geom.Rect{MaxX: 1, MaxY: 1}
	pts := somePoints(40, 1) // 2-slot chain under SlotCap 32
	id := d.Alloc(pts, b)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		slotCap int
	}{{"adopt-default", 0}, {"explicit-match", 32}} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := OpenPageFile(path, DiskOptions{SlotCap: tc.slotCap, CachePages: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.slotCap != 32 {
				t.Fatalf("reopened slotCap = %d, want 32", r.slotCap)
			}
			samePts(t, r.Page(id).Pts, pts, "reopened page")
		})
	}

	_, err = OpenPageFile(path, DiskOptions{SlotCap: 64, CachePages: 4})
	if err == nil {
		t.Fatal("OpenPageFile accepted an explicit SlotCap disagreeing with the header")
	}
	for _, frag := range []string{"32", "64", "mismatch"} {
		if !containsStr(err.Error(), frag) {
			t.Fatalf("mismatch error %q does not mention %q", err, frag)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestViewRaceSoak is the race-suite soak from the issue: readers hold
// pinned views over a stable page set while a writer allocates, updates,
// and frees disjoint pages and another goroutine drops the cache. Run under
// -race it checks the pin/unpin, recycle-guard, and mapping-growth
// synchronization; contents of the stable set are verified on every read.
func TestViewRaceSoak(t *testing.T) {
	d := tmpStore(t, DiskOptions{SlotCap: 8, CachePages: 4})
	b := geom.Rect{MaxX: 1, MaxY: 1}

	const stable = 8
	wantPts := make([][]geom.Point, stable)
	ids := make([]PageID, stable)
	for i := range ids {
		wantPts[i] = somePoints(8, int64(i+1))
		ids[i] = d.Alloc(wantPts[i], b)
	}
	d.DropCaches()

	iters := 400
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			held := make([]PageView, 0, 4)
			heldIdx := make([]int, 0, 4)
			for i := 0; i < iters; i++ {
				j := rng.Intn(stable)
				v := d.View(ids[j])
				held = append(held, v)
				heldIdx = append(heldIdx, j)
				if len(held) == cap(held) || rng.Intn(3) == 0 {
					for k, hv := range held {
						w := wantPts[heldIdx[k]]
						if len(hv.Pts) != len(w) {
							errc <- fmt.Errorf("view of page %d: %d points, want %d", heldIdx[k], len(hv.Pts), len(w))
							hv.Release()
							continue
						}
						for x := range w {
							if hv.Pts[x] != w[x] {
								errc <- fmt.Errorf("view of page %d: point %d = %v, want %v", heldIdx[k], x, hv.Pts[x], w[x])
								break
							}
						}
						hv.Release()
					}
					held, heldIdx = held[:0], heldIdx[:0]
				}
			}
			for _, hv := range held {
				hv.Release()
			}
		}(int64(100 + r))
	}
	// Writer: churn pages disjoint from the stable set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		var churn []PageID
		for i := 0; i < iters; i++ {
			switch {
			case len(churn) < 4 || rng.Intn(3) == 0:
				churn = append(churn, d.Alloc(somePoints(rng.Intn(20), int64(1000+i)), b))
			case rng.Intn(2) == 0:
				j := rng.Intn(len(churn))
				d.Update(churn[j], somePoints(rng.Intn(20), int64(2000+i)), b)
			default:
				j := rng.Intn(len(churn))
				d.Free(churn[j])
				churn[j] = churn[len(churn)-1]
				churn = churn[:len(churn)-1]
			}
		}
	}()
	// Invalidator: periodic cache teardown.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			d.DropCaches()
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if d.Pins() != 0 {
		t.Fatalf("pins = %d after soak", d.Pins())
	}
	for i := range ids {
		samePts(t, d.Page(ids[i]).Pts, wantPts[i], "stable page after soak")
	}
}

// viewStore builds a store holding `pages` single-slot pages that tile
// the unit square on a 16×16 grid, behind a 64-page cache, and fills the
// workload window with queries spread evenly over the grid: every cell
// holds the uniform share, so none is hot and an eviction takes the LRU
// tail after one hot test — the common case.
func viewStore(tb testing.TB, pages int) (*DiskStore, []PageID) {
	d, err := CreatePageFile(filepath.Join(tb.TempDir(), "pages"), DiskOptions{
		SlotCap: 256, CachePages: 64})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	ids := make([]PageID, pages)
	for i := range ids {
		x, y := float64(i%16)/16, float64(i/16%16)/16
		ids[i] = d.Alloc(somePoints(128, int64(i)), geom.Rect{MinX: x, MinY: y, MaxX: x + 1.0/16, MaxY: y + 1.0/16})
	}
	d.Alloc(nil, geom.Rect{MaxX: 1, MaxY: 1}) // the space is the unit square
	for i := 0; i < 1024; i++ {
		x, y := (float64(i%16)+0.5)/16, (float64(i/16%16)+0.5)/16
		d.ObserveQuery(geom.Rect{MinX: x - 0.01, MinY: y - 0.01, MaxX: x + 0.01, MaxY: y + 0.01})
	}
	return d, ids
}

// BenchmarkDiskView times one View and Release on each of the disk store's
// read paths: a cache hit and a mapped miss that evicts. The misses cycle
// through twice the cache's pages, so every View faults (misses/op reports
// it).
func BenchmarkDiskView(b *testing.B) {
	cases := []struct {
		name  string
		pages int
	}{{"hit", 16}, {"mapped-miss", 128}}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d, ids := viewStore(b, c.pages)
			for _, id := range ids { // the hit case's pages are resident
				v := d.View(id)
				v.Release()
			}
			before := d.CacheStats().Misses
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := d.View(ids[i%len(ids)])
				v.Release()
			}
			b.StopTimer()
			b.ReportMetric(float64(d.CacheStats().Misses-before)/float64(b.N), "misses/op")
		})
	}
}

// TestViewAllocs holds the disk read path's allocations: a hit allocates
// nothing, a mapped miss at most its cache entry.
func TestViewAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates")
			}
		}
	}
	d, ids := viewStore(t, 128)
	v := d.View(ids[0])
	v.Release()
	if n := testing.AllocsPerRun(100, func() {
		v := d.View(ids[0])
		v.Release()
	}); n != 0 {
		t.Errorf("a hit allocates %v times, want 0", n)
	}
	next, before := 1, d.CacheStats().Misses
	n := testing.AllocsPerRun(100, func() {
		v := d.View(ids[next%len(ids)])
		next++
		v.Release()
	})
	if misses := d.CacheStats().Misses - before; misses != 101 {
		t.Fatalf("%d of 101 Views missed; the test must fault every time", misses)
	}
	if n > 1 {
		t.Errorf("a mapped miss allocates %v times, want at most 1", n)
	}
}
