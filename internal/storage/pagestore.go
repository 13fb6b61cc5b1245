package storage

import (
	"github.com/wazi-index/wazi/internal/geom"
)

// PageID identifies one clustered page inside a PageStore. IDs are stable
// for the lifetime of the page: queries hold them inside leaf structures and
// resolve them on every access, so a store must never move a live page to a
// different id.
type PageID int32

// NoPage is the nil PageID.
const NoPage PageID = -1

// PageView is a borrowed, read-only view of one page's points, the
// allocation-free read surface of a PageStore. The slice aliases storage
// owned by the store — a cached page, an arena segment, or (in the disk
// backend) the mapped page-file bytes themselves — so its lifetime is
// governed by pinning:
//
//   - A view is valid from View until Release. Release is idempotent on the
//     zero value and must be called exactly once per pinned view; the query
//     kernel releases each view before advancing the leaf cursor.
//   - While any view is pinned, the store guarantees the viewed bytes are
//     not recycled: freed slots park on the free list but are not rewritten,
//     evicted cache pages stay reachable from the view, and mmap mappings
//     are not unmapped. (See DiskStore for the recycle guard.)
//   - Views must not outlive the read-side critical section of the caller:
//     Update/Free of the SAME page while a view of it is pinned is the one
//     hazard the store does not defend against, exactly mirroring the
//     exclusive-access clause of the PageStore contract.
//   - The points must not be mutated through the view; a disk-backed view
//     aliases a read-only mapping and writing would fault the process.
type PageView struct {
	// Pts is the page's point data, borrowed from the store.
	Pts []geom.Point
	pin viewPin // non-nil when Release must unpin store resources
}

// viewPin is the unpin half of a pinned view; implemented by the disk
// backend's cache entries. Kept as an interface so PageView stays a plain
// value type the query kernel can pass around without allocation.
type viewPin interface{ unpin() }

// Release unpins the view. The zero view releases as a no-op, and Release
// clears the pin so double-release is harmless.
func (v *PageView) Release() {
	if v.pin != nil {
		v.pin.unpin()
		v.pin = nil
	}
	v.Pts = nil
}

// Contains reports whether the viewed page stores a point equal to pt.
func (v *PageView) Contains(pt geom.Point) bool {
	for _, q := range v.Pts {
		if q == pt {
			return true
		}
	}
	return false
}

// PageStore abstracts where clustered leaf pages live. The Z-index core
// stores only PageIDs in its leaves and resolves them through the store on
// every access, which is what lets the same tree run RAM-resident (MemStore)
// or disk-resident behind a block cache (DiskStore).
//
// Contract:
//
//   - Alloc, Update, and Free require the same exclusive access as any other
//     structural index mutation; Page, View, and ObserveQuery may be called
//     from many goroutines at once.
//   - The *Page returned by Page is owned by the store. Readers must not
//     mutate it; writers may mutate it only as staging for an immediate
//     Update of the same id (the pattern update paths use for deletes).
//   - A disk-backed store reports unrecoverable I/O failures on an already
//     validated file by panicking — query paths deliberately have no error
//     channel. It reads through a file mapping, so a failed read is a
//     memory fault: fatal by default, a recoverable panic on a goroutine
//     that set debug.SetPanicOnFault, after which the store keeps serving
//     its other pages. All decode-time validation (corrupt or foreign
//     files) happens in OpenPageFile and returns errors instead.
type PageStore interface {
	// Alloc creates a page holding a copy of pts and returns its id.
	// bounds is the leaf cell the page serves, used by workload-aware
	// cache eviction.
	Alloc(pts []geom.Point, bounds geom.Rect) PageID
	// Page resolves id to its page, faulting it into the block cache if
	// the backend is disk-resident. Callers that only read should prefer
	// View: Page may have to materialize a private mutable copy.
	Page(id PageID) *Page
	// View returns a borrowed, read-only, pinned view of page id — the
	// allocation-free read path. The caller must Release it before its
	// read-side critical section ends; see PageView for lifetime rules.
	View(id PageID) PageView
	// Update rewrites the page contents in place (same id).
	Update(id PageID, pts []geom.Point, bounds geom.Rect)
	// Free releases the page and recycles its storage.
	Free(id PageID)
	// PageLen returns the point count of page id without necessarily
	// faulting its data into memory, and whether id names a live page.
	// Warm starts use it both to validate decoded page references and to
	// restore leaf counts without reading the whole page file.
	PageLen(id PageID) (int, bool)
	// ObserveQuery feeds one executed range query into the store's
	// workload histogram (workload-aware eviction); a no-op for
	// RAM-resident backends.
	ObserveQuery(r geom.Rect)
	// PageCount returns the number of live pages.
	PageCount() int
	// Bytes returns the resident in-memory footprint of the pages (for a
	// disk backend: the block cache, not the file).
	Bytes() int64
	// CacheStats returns the block-cache counters; zero-valued for
	// RAM-resident backends except Resident/Capacity.
	CacheStats() CacheStats
	// SetStatsSink routes cache hit/miss/eviction counters into a shared
	// Stats (atomically), so index-level Stats surface them.
	SetStatsSink(*Stats)
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases the backing resources. The store must not be used
	// afterwards.
	Close() error
	// Kind names the backend ("memory" or "disk").
	Kind() string
}

// CacheStats are the block-cache counters of a disk-resident store.
type CacheStats struct {
	// Hits and Misses count page resolutions served from / faulted into
	// the cache.
	Hits, Misses int64
	// Evictions counts pages dropped to make room.
	Evictions int64
	// HotRetained counts eviction-scan skips of pages pinned by hot cells
	// of the query histogram — the workload-aware part of the policy.
	HotRetained int64
	// Resident is the number of cached pages; Capacity the cache bound.
	Resident, Capacity int
}

// MemStore is the RAM-resident PageStore: a slice of pages plus a free list.
// It is the default backend and preserves the pre-PageStore behavior of the
// index exactly — Page is a bounds-checked slice load.
type MemStore struct {
	pages []*Page
	free  []PageID
	live  int
	// arena is the contiguous build-time point buffer. Reserve sizes it and
	// Alloc carves pages out of it as capped subslices until it is
	// exhausted, so a bulk build lays every leaf page into one flat buffer
	// and the query kernel's leaf cursor streams points cache-line after
	// cache-line instead of hopping between per-page allocations.
	arena []geom.Point
}

// NewMemStore returns an empty RAM-resident store.
func NewMemStore() *MemStore { return &MemStore{} }

// Reserve pre-sizes the arena for n points about to be Alloc'd. Bulk builds
// call it once with the dataset size. Reserving is optional and purely a
// layout optimization: pages allocated past the reservation get their own
// backing arrays, and the capped subslices mean any append past a page's
// length reallocates away from the arena rather than clobbering its
// neighbour.
func (m *MemStore) Reserve(n int) {
	if n > cap(m.arena)-len(m.arena) {
		m.arena = make([]geom.Point, 0, n)
	}
}

// Alloc implements PageStore.
func (m *MemStore) Alloc(pts []geom.Point, _ geom.Rect) PageID {
	pg := &Page{}
	if n := len(m.arena); cap(m.arena)-n >= len(pts) {
		m.arena = m.arena[:n+len(pts)]
		pg.Pts = m.arena[n : n+len(pts) : n+len(pts)]
	} else {
		pg.Pts = make([]geom.Point, len(pts))
	}
	copy(pg.Pts, pts)
	m.live++
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		m.pages[id] = pg
		return id
	}
	m.pages = append(m.pages, pg)
	return PageID(len(m.pages) - 1)
}

// Page implements PageStore.
func (m *MemStore) Page(id PageID) *Page { return m.pages[id] }

// View implements PageStore. RAM-resident pages need no pinning: the view
// borrows the page's live slice and Release is a no-op.
func (m *MemStore) View(id PageID) PageView {
	return PageView{Pts: m.pages[id].Pts}
}

// Update implements PageStore.
func (m *MemStore) Update(id PageID, pts []geom.Point, _ geom.Rect) {
	m.pages[id].Pts = pts
}

// Free implements PageStore.
func (m *MemStore) Free(id PageID) {
	m.pages[id] = nil
	m.free = append(m.free, id)
	m.live--
}

// Has reports whether id names a live page.
func (m *MemStore) Has(id PageID) bool {
	return id >= 0 && int(id) < len(m.pages) && m.pages[id] != nil
}

// PageLen implements PageStore.
func (m *MemStore) PageLen(id PageID) (int, bool) {
	if !m.Has(id) {
		return 0, false
	}
	return m.pages[id].Len(), true
}

// ObserveQuery implements PageStore; RAM residency needs no eviction policy.
func (m *MemStore) ObserveQuery(geom.Rect) {}

// PageCount implements PageStore.
func (m *MemStore) PageCount() int { return m.live }

// Bytes implements PageStore. Computed by summation on demand: update
// paths stage mutations in the returned *Page before calling Update, so
// incremental accounting would see the post-mutation size on both sides of
// the delta and drift. Bytes is a reporting call (Table 5), not a hot path.
func (m *MemStore) Bytes() int64 {
	var b int64
	for _, pg := range m.pages {
		if pg != nil {
			b += pg.Bytes()
		}
	}
	return b
}

// CacheStats implements PageStore: everything is always resident.
func (m *MemStore) CacheStats() CacheStats {
	return CacheStats{Resident: m.live, Capacity: m.live}
}

// SetStatsSink implements PageStore; no cache events exist to route.
func (m *MemStore) SetStatsSink(*Stats) {}

// Sync implements PageStore.
func (m *MemStore) Sync() error { return nil }

// Close implements PageStore.
func (m *MemStore) Close() error { return nil }

// Kind implements PageStore.
func (m *MemStore) Kind() string { return "memory" }
