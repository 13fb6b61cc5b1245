package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/obs"
)

// DiskStore is the disk-resident PageStore: a fixed-slot page file plus an
// in-memory block cache whose eviction is workload-aware. Pages are chains
// of fixed-size slots (one slot fits SlotCap points; oversized pages —
// coincident-point leaves that cannot split — chain continuation slots), and
// freed slots are recycled through an on-file free list, so the file never
// needs compaction to stay bounded.
//
// Every read comes from a read-only shared mapping of the file; the
// descriptor only writes, truncates and syncs. A cache fault serves a
// borrowed view straight over the mapped bytes: single-slot pages are
// reinterpreted in place with zero copying and zero point allocations, and
// a chained page is decoded into a private heap copy. The platform must be a
// little-endian unix (see mmap_unix.go); elsewhere page files do not open.
//
// A mapped read of bytes the file no longer holds (it was truncated under
// the store) or cannot deliver (EIO) raises SIGBUS. Where the reading
// goroutine has set debug.SetPanicOnFault, that is a recoverable panic, and
// the miss path releases the store mutex on the way out, so the store keeps
// serving its other pages.
//
// Borrowed views are kept safe by a recycle guard rather than by copying:
// every pinned PageView holds a refcount (per cache entry and store-wide),
// and while any view is pinned the store never RECYCLES a freed slot —
// popSlot extends the file instead of reusing the free list — and never
// unmaps a mapping. Freeing only rewrites slot HEADERS (the free-list
// links), so the point bytes a view aliases stay intact until the last pin
// drops. Mappings are only ever grown by mapping the file again at a larger
// size; old mappings stay valid (views and cached pages alias them) and are
// unmapped together at Close, deferred past Close to the final unpin if
// views are still pinned then.
//
// The file carries a versioned header in the same discipline as the Sharded
// snapshot format: OpenPageFile refuses foreign magic or unknown versions
// with a clear error and fully validates the slot graph (free list, chain
// structure) before serving from it, which is what makes the warm-start path
// safe to point at a file written by an earlier process.
//
// Crash consistency is explicitly not a goal: writes are buffered until
// Sync, matching the snapshot-oriented durability model of the rest of the
// repository (persist on graceful shutdown, rebuild on hard crash).
type DiskStore struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	slotCap int
	slots   int32 // slots physically present in the file
	free    int32 // head of the free-slot chain, -1 when empty
	nfree   int
	npages  int
	closed  bool

	// maps are the file's read-only mappings, oldest first; the last one
	// covers the whole file and serves new views. reaped records that Close
	// already released them (possibly from the final unpin, after Close
	// found views still pinned).
	maps   []*fileMap
	reaped bool

	// pins counts pinned PageViews across the store. While nonzero, freed
	// slots are not recycled and mappings are not unmapped — the recycle
	// guard that makes borrowed views safe against Free/Alloc/retirement
	// races. closing mirrors d.closed for the lock-free unpin fast path.
	pins    atomic.Int64
	closing atomic.Bool

	cache blockCache
	hist  queryHist
	sink  atomic.Pointer[Stats]

	// reads/readNanos count page-file read operations and their summed
	// latency. They are atomics (not mu-guarded) so traced query paths can
	// take before/after deltas without touching the store mutex.
	reads     atomic.Int64
	readNanos atomic.Int64
	readObs   atomic.Pointer[obs.Histogram]

	hits, misses, evictions, hotRetained int64 // guarded by mu
}

// DiskOptions tune a disk-resident store.
type DiskOptions struct {
	// SlotCap is the number of points one file slot holds. It should match
	// the index's leaf capacity so that in the common case a page is one
	// slot. Default 256. On OpenPageFile the file header's capacity is
	// authoritative (it sizes all slot-offset arithmetic): leaving SlotCap
	// zero adopts the header's value, while an explicit nonzero value that
	// disagrees with the header is refused with an error rather than
	// silently mis-addressing every slot.
	SlotCap int
	// CachePages bounds the block cache, in pages. Default 1024.
	CachePages int
	// HistWindow is the sliding window of the workload histogram feeding
	// eviction decisions. Default 1024 queries.
	HistWindow int
}

func (o *DiskOptions) fill() {
	if o.SlotCap <= 0 {
		o.SlotCap = 256
	}
	if o.CachePages <= 0 {
		o.CachePages = 1024
	}
	if o.HistWindow <= 0 {
		o.HistWindow = 1024
	}
}

// Page-file format constants. The header is fixed-size; slots follow
// back to back.
const (
	pageFileMagic   = "waziPageFile"
	pageFileVersion = 1
	fileHeaderSize  = 64
	slotHeaderSize  = 48 // used u32, count u32, next i32, pad u32, bounds 4xf64
	pointSize       = 16

	slotFree = 0 // slot is on the free list
	slotHead = 1 // first slot of a page chain; bounds are meaningful
	slotCont = 2 // continuation slot of an oversized page

	// maxSlotCap bounds the slot capacity a header may declare, keeping
	// adversarial files from driving huge allocations during validation.
	maxSlotCap = 1 << 20
)

func (d *DiskStore) slotSize() int64 {
	return int64(slotHeaderSize + d.slotCap*pointSize)
}

func (d *DiskStore) slotOff(i int32) int64 {
	return fileHeaderSize + int64(i)*d.slotSize()
}

// fileSize is the size of a file holding d.slots slots.
func (d *DiskStore) fileSize() int64 { return d.slotOff(d.slots) }

// CreatePageFile creates (truncating any previous content) a page file at
// path and returns an empty store over it.
func CreatePageFile(path string, o DiskOptions) (*DiskStore, error) {
	o.fill()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: creating page file: %w", err)
	}
	d := newDiskStore(f, path, o)
	if err := d.writeHeader(); err != nil {
		d.f.Close()
		return nil, err
	}
	if err := d.initMmap(); err != nil {
		d.f.Close()
		return nil, fmt.Errorf("storage: creating page file: %w", err)
	}
	return d, nil
}

// OpenPageFile adopts an existing page file written by CreatePageFile — the
// warm-start path. The header is version-checked and the entire slot graph
// (free list, page chains) is validated before any page is served; a
// corrupt, truncated, or foreign file is refused with an error, never a
// panic. The header's slot capacity is authoritative; an explicit
// o.SlotCap that disagrees with it is refused (see DiskOptions.SlotCap).
func OpenPageFile(path string, o DiskOptions) (*DiskStore, error) {
	askedSlotCap := o.SlotCap
	o.fill()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: opening page file: %w", err)
	}
	d, err := adoptPageFile(f, path, o, askedSlotCap)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s: %w", path, err)
	}
	if err := d.initMmap(); err != nil {
		d.f.Close()
		return nil, fmt.Errorf("storage: page file %s: %w", path, err)
	}
	return d, nil
}

func newDiskStore(f *os.File, path string, o DiskOptions) *DiskStore {
	d := &DiskStore{f: f, path: path, slotCap: o.SlotCap, free: -1}
	d.cache.init(o.CachePages)
	d.hist.init(o.HistWindow)
	return d
}

// initMmap creates the initial mapping, sized at twice the file so early
// growth needs no remap.
func (d *DiskStore) initMmap() error {
	m, err := mapFile(d.f, 2*d.fileSize())
	if err != nil {
		return fmt.Errorf("mapping: %w", err)
	}
	d.maps = []*fileMap{m}
	return nil
}

// curMap returns the newest (whole-file) mapping, and panics with a storage
// error once Close has released the mappings: a read after Close must not
// touch unmapped memory. Callers hold d.mu.
func (d *DiskStore) curMap() *fileMap {
	if d.reaped {
		d.ioPanic("reading", errors.New("store is closed"))
	}
	return d.maps[len(d.maps)-1]
}

// ensureMapped grows the mapping set to cover the file's current size,
// called after the file is extended. Old mappings are kept: borrowed views
// and cached pages alias them, and they remain valid and coherent (the file
// only ever grows). A failure to map is an I/O failure of the write that
// grew the file. Callers hold d.mu.
func (d *DiskStore) ensureMapped() {
	size := d.fileSize()
	if d.curMap().covers(0, size) {
		return
	}
	m, err := mapFile(d.f, size*2)
	if err != nil {
		d.ioPanic("mapping file", err)
	}
	d.maps = append(d.maps, m)
}

func (d *DiskStore) writeHeader() error {
	var h [fileHeaderSize]byte
	copy(h[:12], pageFileMagic)
	binary.LittleEndian.PutUint32(h[12:], pageFileVersion)
	binary.LittleEndian.PutUint32(h[16:], uint32(d.slotCap))
	binary.LittleEndian.PutUint32(h[20:], uint32(d.slots))
	binary.LittleEndian.PutUint32(h[24:], uint32(d.free))
	binary.LittleEndian.PutUint32(h[28:], uint32(d.npages))
	if _, err := d.f.WriteAt(h[:], 0); err != nil {
		return fmt.Errorf("storage: writing page-file header: %w", err)
	}
	return nil
}

// adoptPageFile validates the header and the full slot graph of an existing
// file and reconstructs the in-memory free-list state. askedSlotCap is the
// caller's pre-fill SlotCap: zero adopts the header's capacity, a nonzero
// value must agree with it.
func adoptPageFile(f *os.File, path string, o DiskOptions, askedSlotCap int) (*DiskStore, error) {
	var h [fileHeaderSize]byte
	if _, err := f.ReadAt(h[:], 0); err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	if string(h[:12]) != pageFileMagic {
		return nil, fmt.Errorf("not a wazi page file (magic %q)", h[:12])
	}
	if v := binary.LittleEndian.Uint32(h[12:]); v != pageFileVersion {
		return nil, fmt.Errorf("unsupported page-file version %d (this build reads version %d)", v, pageFileVersion)
	}
	slotCap := int(binary.LittleEndian.Uint32(h[16:]))
	if slotCap <= 0 || slotCap > maxSlotCap {
		return nil, fmt.Errorf("implausible slot capacity %d", slotCap)
	}
	if askedSlotCap > 0 && askedSlotCap != slotCap {
		return nil, fmt.Errorf("slot capacity mismatch: file header says %d points per slot, caller asked for %d (the header value sizes all slot addressing; open with SlotCap 0 to adopt it)", slotCap, askedSlotCap)
	}
	slots := int32(binary.LittleEndian.Uint32(h[20:]))
	freeHead := int32(binary.LittleEndian.Uint32(h[24:]))
	npages := int(binary.LittleEndian.Uint32(h[28:]))
	if slots < 0 {
		return nil, fmt.Errorf("implausible slot count %d", slots)
	}

	o.SlotCap = slotCap
	d := newDiskStore(f, path, o)
	d.slots = slots
	d.free = freeHead

	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if want := d.fileSize(); st.Size() != want {
		return nil, fmt.Errorf("file size %d does not match %d slots (want %d)", st.Size(), slots, want)
	}

	// One pass over the slot headers, then structural validation: the free
	// chain must cover exactly the free slots, and page chains must cover
	// exactly the continuation slots, with no sharing or cycles.
	used := make([]uint32, slots)
	next := make([]int32, slots)
	counts := make([]uint32, slots)
	var sh [slotHeaderSize]byte
	for i := int32(0); i < slots; i++ {
		if _, err := f.ReadAt(sh[:16], d.slotOff(i)); err != nil {
			return nil, fmt.Errorf("reading slot %d header: %w", i, err)
		}
		used[i] = binary.LittleEndian.Uint32(sh[0:])
		counts[i] = binary.LittleEndian.Uint32(sh[4:])
		next[i] = int32(binary.LittleEndian.Uint32(sh[8:]))
		if used[i] > slotCont {
			return nil, fmt.Errorf("slot %d: invalid state %d", i, used[i])
		}
		if counts[i] > uint32(slotCap) {
			return nil, fmt.Errorf("slot %d: count %d exceeds slot capacity %d", i, counts[i], slotCap)
		}
		if next[i] != -1 && (next[i] < 0 || next[i] >= slots) {
			return nil, fmt.Errorf("slot %d: next %d out of range", i, next[i])
		}
	}
	seen := make([]bool, slots)
	nfree := 0
	for i := freeHead; i != -1; i = next[i] {
		if i < 0 || i >= slots {
			return nil, fmt.Errorf("free list escapes the file at slot %d", i)
		}
		if seen[i] {
			return nil, fmt.Errorf("free list cycles at slot %d", i)
		}
		if used[i] != slotFree {
			return nil, fmt.Errorf("free list visits live slot %d", i)
		}
		seen[i] = true
		nfree++
	}
	heads := 0
	for i := int32(0); i < slots; i++ {
		switch used[i] {
		case slotFree:
			if !seen[i] {
				return nil, fmt.Errorf("free slot %d not on the free list", i)
			}
		case slotHead:
			heads++
			for j := next[i]; j != -1; j = next[j] {
				if seen[j] {
					return nil, fmt.Errorf("slot %d appears in two chains", j)
				}
				if used[j] != slotCont {
					return nil, fmt.Errorf("chain from head %d visits non-continuation slot %d", i, j)
				}
				seen[j] = true
			}
		}
	}
	for i := int32(0); i < slots; i++ {
		if used[i] == slotCont && !seen[i] {
			return nil, fmt.Errorf("continuation slot %d belongs to no chain", i)
		}
	}
	if heads != npages {
		return nil, fmt.Errorf("header claims %d pages, file holds %d", npages, heads)
	}
	d.nfree = nfree
	d.npages = npages
	return d, nil
}

// ioPanic reports an unrecoverable I/O failure on a validated file. See the
// PageStore contract.
func (d *DiskStore) ioPanic(op string, err error) {
	panic(fmt.Sprintf("storage: page file %s: %s: %v", d.path, op, err))
}

// slotHeader returns (used, count, next, bounds) of slot i, read from the
// mapping. Callers hold d.mu.
func (d *DiskStore) slotHeader(i int32) (uint32, int, int32, geom.Rect) {
	off := d.slotOff(i)
	sh := d.curMap().data[off : off+slotHeaderSize]
	var b geom.Rect
	b.MinX = math.Float64frombits(binary.LittleEndian.Uint64(sh[16:]))
	b.MinY = math.Float64frombits(binary.LittleEndian.Uint64(sh[24:]))
	b.MaxX = math.Float64frombits(binary.LittleEndian.Uint64(sh[32:]))
	b.MaxY = math.Float64frombits(binary.LittleEndian.Uint64(sh[40:]))
	return binary.LittleEndian.Uint32(sh[0:]), int(binary.LittleEndian.Uint32(sh[4:])), int32(binary.LittleEndian.Uint32(sh[8:])), b
}

// writeSlot writes one slot: header plus its share of the points.
func (d *DiskStore) writeSlot(i int32, state uint32, pts []geom.Point, next int32, bounds geom.Rect) {
	buf := make([]byte, slotHeaderSize+len(pts)*pointSize)
	binary.LittleEndian.PutUint32(buf[0:], state)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(pts)))
	binary.LittleEndian.PutUint32(buf[8:], uint32(next))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(bounds.MinX))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(bounds.MinY))
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(bounds.MaxX))
	binary.LittleEndian.PutUint64(buf[40:], math.Float64bits(bounds.MaxY))
	for j, p := range pts {
		binary.LittleEndian.PutUint64(buf[slotHeaderSize+j*pointSize:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[slotHeaderSize+j*pointSize+8:], math.Float64bits(p.Y))
	}
	if _, err := d.f.WriteAt(buf, d.slotOff(i)); err != nil {
		d.ioPanic(fmt.Sprintf("writing slot %d", i), err)
	}
}

// popSlot takes a slot from the free list, extending the file when none is
// available. The free list is consulted only while NO view is pinned — this
// is the recycle guard: a pinned view may alias the point bytes of a freed
// slot, so while pins are outstanding new allocations extend the file
// instead of rewriting parked slots. Callers hold d.mu.
func (d *DiskStore) popSlot() int32 {
	if d.free != -1 && d.pins.Load() == 0 {
		i := d.free
		_, _, next, _ := d.slotHeader(i)
		d.free = next
		d.nfree--
		return i
	}
	i := d.slots
	d.slots++
	if err := d.f.Truncate(d.fileSize()); err != nil {
		d.ioPanic("extending file", err)
	}
	d.ensureMapped()
	return i
}

// pushSlot returns a slot to the free list. Callers hold d.mu.
func (d *DiskStore) pushSlot(i int32) {
	d.writeSlot(i, slotFree, nil, d.free, geom.Rect{})
	d.free = i
	d.nfree++
}

// chainSlots returns the slot chain of page id, head first.
func (d *DiskStore) chainSlots(id PageID) []int32 {
	var chain []int32
	for i := int32(id); i != -1; {
		chain = append(chain, i)
		_, _, next, _ := d.slotHeader(i)
		i = next
		if len(chain) > int(d.slots) {
			d.ioPanic("walking page chain", fmt.Errorf("cycle at page %d", id))
		}
	}
	return chain
}

// writeChain lays pts out over a slot chain for page id, reusing the given
// existing chain, growing or shrinking it as needed. Callers hold d.mu.
func (d *DiskStore) writeChain(chain []int32, pts []geom.Point, bounds geom.Rect) {
	need := (len(pts) + d.slotCap - 1) / d.slotCap
	if need == 0 {
		need = 1
	}
	for len(chain) < need {
		chain = append(chain, d.popSlot())
	}
	for _, extra := range chain[need:] {
		d.pushSlot(extra)
	}
	chain = chain[:need]
	for j, i := range chain {
		lo := j * d.slotCap
		hi := lo + d.slotCap
		if hi > len(pts) {
			hi = len(pts)
		}
		state := uint32(slotCont)
		if j == 0 {
			state = slotHead
		}
		next := int32(-1)
		if j+1 < need {
			next = chain[j+1]
		}
		d.writeSlot(i, state, pts[lo:hi], next, bounds)
	}
}

// ----------------------------------------------------------- PageStore API

// Alloc implements PageStore. A single-slot page is cached as a zero-copy
// view over the just-written file bytes (coherent with WriteAt through the
// shared mapping), so bulk builds do not hold a second heap copy of every
// page; a chained page's cache entry is a private copy.
func (d *DiskStore) Alloc(pts []geom.Point, bounds geom.Rect) PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	head := d.popSlot()
	chain := []int32{head}
	d.writeChain(chain, pts, bounds)
	d.npages++
	id := PageID(head)
	if len(pts) <= d.slotCap {
		d.cacheInsert(id, d.curMap().pointsAt(d.slotOff(head)+slotHeaderSize, len(pts)), bounds, true)
	} else {
		d.cacheInsert(id, append([]geom.Point(nil), pts...), bounds, false)
	}
	d.hist.extendSpace(bounds)
	return id
}

// pageEntry resolves id to its (pinned) cache entry, faulting on a miss,
// and returns the entry together with the page's points as captured under
// the store mutex. It is the shared core of Page and View; the caller owns
// one pin on the returned entry and must release it (View hands the pin to
// the PageView; Page drops it after promoting).
//
// The cache-hit path performs no allocations: a table load, an LRU move,
// and two pin increments. A miss does not leave the mutex: constructing the
// borrowed view issues no read syscall, and the kernel pages the bytes in
// lazily when the scan touches them.
func (d *DiskStore) pageEntry(id PageID) (*cacheEntry, []geom.Point) {
	d.mu.Lock()
	e := d.cache.get(id)
	if e == nil {
		return d.fault(id)
	}
	d.hits++
	if s := d.sink.Load(); s != nil {
		atomic.AddInt64(&s.CacheHits, 1)
	}
	e.pins.Add(1)
	d.pins.Add(1)
	pts := e.pg.Pts
	d.mu.Unlock()
	return e, pts
}

// fault is pageEntry's miss path, entered with d.mu held: a single-slot
// page (the common case — SlotCap matches the leaf capacity) becomes a
// zero-copy Page aliasing the mapped bytes; a chained page is decoded into
// a private heap copy, chained slabs being non-contiguous on file. Counts
// as a miss and as one page-file read.
//
// It reads the mapping under the mutex, and such a read can fault (see
// DiskStore), so it releases the mutex on every exit, a panic included.
func (d *DiskStore) fault(id PageID) (*cacheEntry, []geom.Point) {
	defer d.mu.Unlock()
	t0 := time.Since(clockEpoch)
	m := d.curMap()
	d.misses++
	if s := d.sink.Load(); s != nil {
		atomic.AddInt64(&s.CacheMisses, 1)
	}
	state, count, next, bounds := d.slotHeader(int32(id))
	if state != slotHead {
		d.ioPanic("resolving page", fmt.Errorf("page %d is not a chain head (state %d)", id, state))
	}
	pts := m.pointsAt(d.slotOff(int32(id))+slotHeaderSize, count)
	mmapped := next == -1
	if !mmapped {
		n, ok := d.pageLen(id)
		if !ok {
			d.ioPanic("walking page chain", fmt.Errorf("broken chain at page %d", id))
		}
		pts = make([]geom.Point, 0, n)
		for i := int32(id); i != -1; i = next {
			_, count, next, _ = d.slotHeader(i)
			pts = append(pts, m.pointsAt(d.slotOff(i)+slotHeaderSize, count)...)
		}
	}
	d.countRead(t0)
	e := d.cacheInsert(id, pts, bounds, mmapped)
	e.pins.Add(1)
	d.pins.Add(1)
	return e, pts
}

// clockEpoch anchors the fault clock: time.Since(clockEpoch) reads only the
// monotonic clock, where time.Now reads the wall clock too.
var clockEpoch = time.Now()

// countRead counts one page-file read that started at t0, a reading of
// time.Since(clockEpoch), into reads, readNanos and the read histogram.
func (d *DiskStore) countRead(t0 time.Duration) {
	elapsed := time.Since(clockEpoch) - t0
	d.reads.Add(1)
	d.readNanos.Add(int64(elapsed))
	if h := d.readObs.Load(); h != nil {
		h.Observe(elapsed.Seconds())
	}
}

// Page implements PageStore. Because callers of Page may mutate the
// returned page as staging for an Update (see the PageStore contract), an
// mmap-backed cache entry is first promoted to a private heap copy — the
// mapping is read-only and must never be written through. Read-only
// callers should use View, which keeps the zero-copy entry intact. The
// promotion copy reads the mapping under the mutex, so the mutex and the pin
// are released by defer: a faulting copy leaves neither held.
func (d *DiskStore) Page(id PageID) *Page {
	e, _ := d.pageEntry(id)
	defer e.unpin() // after the unlock: a final unpin may take d.mu
	d.mu.Lock()
	defer d.mu.Unlock()
	if e.mmapped {
		pts := make([]geom.Point, len(e.pg.Pts))
		copy(pts, e.pg.Pts)
		e.pg.Pts = pts
		e.mmapped = false
	}
	return &e.pg
}

// View implements PageStore: the allocation-free read path. The returned
// view pins its cache entry (and, store-wide, the recycle guard) until
// Release.
func (d *DiskStore) View(id PageID) PageView {
	e, pts := d.pageEntry(id)
	return PageView{Pts: pts, pin: e}
}

// Pins returns the number of currently pinned views, for tests and the
// invalidation fuzzer.
func (d *DiskStore) Pins() int64 { return d.pins.Load() }

// Update implements PageStore.
func (d *DiskStore) Update(id PageID, pts []geom.Point, bounds geom.Rect) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeChain(d.chainSlots(id), pts, bounds)
	if e := d.cache.get(id); e != nil {
		e.set(pts, bounds, false) // pts is caller heap, not mapped file bytes
	} else {
		d.cacheInsert(id, append([]geom.Point(nil), pts...), bounds, false)
	}
	d.hist.extendSpace(bounds)
}

// Free implements PageStore. Only slot HEADERS are rewritten (the free-list
// links): the point bytes stay intact, so pinned views of other pages —
// and even stale views of this one — keep reading the bytes they captured
// until the recycle guard lets popSlot reuse the slots.
func (d *DiskStore) Free(id PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, i := range d.chainSlots(id) {
		d.pushSlot(i)
	}
	d.npages--
	if e := d.cache.get(id); e != nil {
		d.cache.remove(e)
	}
}

// Has reports whether id names a live page.
func (d *DiskStore) Has(id PageID) bool {
	_, ok := d.PageLen(id)
	return ok
}

// PageLen implements PageStore by walking the chain's slot headers only —
// no page data is faulted into the cache.
func (d *DiskStore) PageLen(id PageID) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pageLen(id)
}

// pageLen is PageLen under d.mu, which callers hold.
func (d *DiskStore) pageLen(id PageID) (int, bool) {
	if id < 0 || int32(id) >= d.slots {
		return 0, false
	}
	state, count, next, _ := d.slotHeader(int32(id))
	if state != slotHead {
		return 0, false
	}
	total := count
	for hops := 0; next != -1; hops++ {
		if hops > int(d.slots) {
			return 0, false
		}
		state, count, next, _ = d.slotHeader(next)
		if state != slotCont {
			return 0, false
		}
		total += count
	}
	return total, true
}

// ObserveQuery implements PageStore: the query center lands in the workload
// histogram that eviction consults.
func (d *DiskStore) ObserveQuery(r geom.Rect) {
	d.mu.Lock()
	d.hist.observe(r)
	d.mu.Unlock()
}

// PageCount implements PageStore.
func (d *DiskStore) PageCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.npages
}

// Bytes implements PageStore: the resident footprint is the block cache.
func (d *DiskStore) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cache.bytesResident()
}

// FileBytes returns the size of the backing page file.
func (d *DiskStore) FileBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fileSize()
}

// CacheStats implements PageStore.
func (d *DiskStore) CacheStats() CacheStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return CacheStats{
		Hits:        d.hits,
		Misses:      d.misses,
		Evictions:   d.evictions,
		HotRetained: d.hotRetained,
		Resident:    d.cache.n,
		Capacity:    d.cache.capPages,
	}
}

// SetStatsSink implements PageStore.
func (d *DiskStore) SetStatsSink(s *Stats) { d.sink.Store(s) }

// SetReadObs attaches a latency histogram that every page-file read (cache
// miss) is observed into, in seconds. Pass nil to detach.
func (d *DiskStore) SetReadObs(h *obs.Histogram) { d.readObs.Store(h) }

// ReadIO returns the cumulative number of page-file reads and their summed
// latency in nanoseconds. Traced query paths take before/after deltas to
// attribute page I/O to a single query; under concurrent faulting the delta
// may fold in a neighbor's read, so it is monitoring-grade attribution, not
// an exact accounting.
func (d *DiskStore) ReadIO() (reads, nanos int64) {
	return d.reads.Load(), d.readNanos.Load()
}

// DropCaches empties the block cache (counters are retained), putting the
// store in the state a cold start would see. Benchmarks use it to measure
// disk-cold latency without reopening the file; store retirement uses it to
// release the cache's heap. Safe with views pinned: dropped entries merely
// detach from the cache, their bytes (heap copies, or mapped file bytes
// kept by the recycle guard) stay reachable from every outstanding view.
func (d *DiskStore) DropCaches() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cache.init(d.cache.capPages)
}

// Path returns the page file's path.
func (d *DiskStore) Path() string { return d.path }

// Sync implements PageStore: the header is brought up to date and the file
// flushed to stable storage.
func (d *DiskStore) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	if err := d.writeHeader(); err != nil {
		return err
	}
	return d.f.Sync()
}

// Close implements PageStore. Closing the descriptor does not invalidate
// mappings, so views pinned at Close keep reading valid memory; the
// mappings themselves are released here when no view is pinned, otherwise
// by the final unpin.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.closing.Store(true)
	err := d.writeHeader()
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	d.reapMappingsLocked()
	return err
}

// reapMappings releases the file mappings after Close once the last view
// unpins (the unpin fast path calls it when the store-wide pin count hits
// zero on a closing store).
func (d *DiskStore) reapMappings() {
	d.mu.Lock()
	d.reapMappingsLocked()
	d.mu.Unlock()
}

// reapMappingsLocked unmaps everything iff the store is closed, no view is
// pinned, and the reap has not already happened. It also drops the cache —
// mmap-backed entries alias memory that is about to disappear — so a
// (contract-violating) read after it misses, and the miss path's curMap
// surfaces it as an ioPanic instead of a segfault. Callers hold d.mu.
func (d *DiskStore) reapMappingsLocked() {
	if d.reaped || !d.closed || d.pins.Load() != 0 {
		return
	}
	d.reaped = true
	d.cache.init(d.cache.capPages)
	for _, m := range d.maps {
		m.unmap()
	}
	d.maps = nil
}

// Kind implements PageStore.
func (d *DiskStore) Kind() string { return "disk" }

// cacheInsert adds a page to the cache and evicts if over capacity, calling
// back into the store's counters. Callers hold d.mu.
func (d *DiskStore) cacheInsert(id PageID, pts []geom.Point, bounds geom.Rect, mmapped bool) *cacheEntry {
	e := d.cache.insert(d, id, pts, bounds, mmapped)
	for d.cache.n > d.cache.capPages {
		hotSkips := d.cache.evictOne(&d.hist)
		d.evictions++
		d.hotRetained += int64(hotSkips)
		if s := d.sink.Load(); s != nil {
			atomic.AddInt64(&s.CacheEvictions, 1)
		}
	}
	return e
}

// --------------------------------------------------------------- the cache

// blockCache is an LRU page cache with workload-aware eviction: before
// evicting the least-recently-used page, a short scan skips pages whose
// bounds fall in hot cells of the query histogram, so the hot working set
// survives scans over cold regions (plain LRU would let a single sequential
// sweep flush it).
//
// The LRU list is intrusive (prev/next live on the entries, around a
// sentinel) and entries are found through a table indexed by PageID —
// PageIDs are head-slot indices, dense below the file's slot count — so a
// hit or a fault touches no map and allocates no list node.
type blockCache struct {
	capPages int
	n        int           // resident entries
	byID     []*cacheEntry // nil where the page is not resident
	head     cacheEntry    // sentinel: head.next is the MRU end, head.prev the LRU end
}

// cacheEntry is one cached page, its Page embedded: a fault allocates one
// object. The unpin rule: unpin reads what it needs from the entry before
// its decrement and touches nothing on it afterwards. Entries are not
// recycled, but the rule is what would let an evicted one be reused.
type cacheEntry struct {
	prev, next *cacheEntry
	id         PageID
	pg         Page
	bounds     geom.Rect
	store      *DiskStore
	// cells are the histogram cells bounds cover, valid while cellGen
	// equals the histogram's gen (0: never computed).
	cells   cellMask
	cellGen uint64
	// pins counts PageViews borrowing this entry's points. A pinned entry
	// survives eviction and DropCaches by simple detachment: the entry (and
	// through it the heap copy or the file mapping) stays reachable from
	// the views, so unpinning after detachment is still well-defined.
	pins atomic.Int32
	// mmapped marks pg.Pts as aliasing the read-only file mapping (true
	// for single-slot pages). Page() promotes such entries
	// to private heap copies before handing them out as mutable staging.
	mmapped bool
}

// unpin releases one view's pin: the PageView.Release path. Lock-free
// except when the last pin on a closing store triggers the deferred
// mapping reap.
func (e *cacheEntry) unpin() {
	d := e.store // read before the decrement: see the rule on cacheEntry
	e.pins.Add(-1)
	if d.pins.Add(-1) == 0 && d.closing.Load() {
		d.reapMappings()
	}
}

// set installs a page's points and bounds, invalidating the cell mask.
func (e *cacheEntry) set(pts []geom.Point, bounds geom.Rect, mmapped bool) {
	e.pg.Pts, e.bounds, e.mmapped, e.cellGen = pts, bounds, mmapped, 0
}

// evictScan bounds how many LRU-end entries an eviction inspects while
// looking for a cold victim; beyond it the policy degrades to plain LRU.
const evictScan = 8

func (c *blockCache) init(capPages int) {
	c.capPages = capPages
	c.n = 0
	clear(c.byID)
	c.head.prev, c.head.next = &c.head, &c.head
}

// bytesResident sums the cached pages' heap footprint on demand;
// incremental accounting cannot work because update paths mutate the cached
// *Page in place before Update is called. The sum counts exact point bytes
// (len, not cap — a chained page's heap copy is its full chain, a
// shrunken-in-place page only its live points) plus per-page bookkeeping;
// mmap-backed entries contribute bookkeeping only, their points being file
// bytes rather than cache heap.
func (c *blockCache) bytesResident() int64 {
	var b int64
	for e := c.head.next; e != &c.head; e = e.next {
		b += pageOverheadBytes
		if !e.mmapped {
			b += int64(len(e.pg.Pts)) * pointSize
		}
	}
	return b
}

// pageOverheadBytes approximates the fixed per-cached-page bookkeeping (the
// Page struct's slice header) counted by bytesResident.
const pageOverheadBytes = 24

// get returns the resident entry of id, moved to the MRU end, or nil.
func (c *blockCache) get(id PageID) *cacheEntry {
	if uint(id) >= uint(len(c.byID)) {
		return nil
	}
	e := c.byID[id]
	if e != nil && e != c.head.next {
		c.unlink(e)
		c.pushFront(e)
	}
	return e
}

func (c *blockCache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.head, c.head.next
	e.next.prev = e
	c.head.next = e
}

func (c *blockCache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *blockCache) insert(d *DiskStore, id PageID, pts []geom.Point, bounds geom.Rect, mmapped bool) *cacheEntry {
	if e := c.get(id); e != nil {
		e.set(pts, bounds, mmapped)
		return e
	}
	if n := int(id) + 1; n > len(c.byID) {
		c.byID = slices.Grow(c.byID, n-len(c.byID))[:n]
	}
	e := &cacheEntry{id: id, store: d}
	e.set(pts, bounds, mmapped)
	c.byID[id] = e
	c.pushFront(e)
	c.n++
	return e
}

// remove detaches e from the cache; its links are cleared so a detached
// entry kept alive by a view does not keep its old neighbours alive.
func (c *blockCache) remove(e *cacheEntry) {
	c.unlink(e)
	e.prev, e.next = nil, nil
	c.byID[e.id] = nil
	c.n--
}

// evictOne removes one entry, preferring the least-recently-used page that
// is NOT pinned by a hot histogram cell and NOT pinned by a borrowed view
// (a pinned entry is about to be re-referenced; evicting it would refault
// the page immediately). Returns how many hot pages were genuinely retained
// in favor of a colder victim; when every scanned candidate is hot or
// pinned the policy degrades to plain LRU — evicting even a view-pinned
// entry is safe, the views keep the detached entry's bytes alive — and
// nothing was retained, so zero is reported.
func (c *blockCache) evictOne(h *queryHist) (hotSkips int) {
	victim := c.head.prev
	if victim == &c.head {
		return 0
	}
	foundCold := false
	for i, e := 0, victim; e != &c.head && i < evictScan; i, e = i+1, e.prev {
		if e.pins.Load() > 0 {
			continue
		}
		if !h.hot(e) {
			victim, foundCold = e, true
			break
		}
		hotSkips++
	}
	if !foundCold {
		hotSkips = 0
	}
	c.remove(victim)
	return hotSkips
}

// ----------------------------------------------------------- the histogram

const (
	histSide  = 16
	histCells = histSide * histSide
)

// cellMask is a set of histogram cells, bit c%64 of word c/64 for cell c.
type cellMask [histCells / 64]uint64

// queryHist is the RebuildAdvisor-style spatial histogram of recent query
// centers that makes eviction workload-aware. It keeps a sliding window of
// the last HistWindow queries over a histSide² grid; a cell is hot when
// its share of the window is well above the uniform share.
//
// The hot cells are kept as a cellMask, updated as observe moves counts,
// and each cache entry caches the mask of cells its bounds cover, so the
// eviction test is four ANDs. gen stamps those masks: it advances whenever
// space changes, which moves every cell boundary.
type queryHist struct {
	space     geom.Rect
	haveSp    bool
	gen       uint64
	counts    [histCells]int
	window    []int32
	next      int
	filled    int
	threshold int      // a cell is hot when its count exceeds this (0: not yet set)
	hotCells  cellMask // the cells whose count exceeds threshold
}

func (h *queryHist) init(window int) {
	h.window = make([]int32, window)
	for i := range h.window {
		h.window[i] = -1
	}
}

// extendSpace grows the histogram's domain to cover r. Cell assignments of
// previously windowed queries are not remapped; the window turns over
// quickly enough that transient misclassification is harmless.
func (h *queryHist) extendSpace(r geom.Rect) {
	if h.haveSp {
		r = h.space.Union(r)
	}
	// Float comparison: a NaN bound never compares equal, so every mask is
	// recomputed, and a ±0 flip moves no cell boundary.
	if !h.haveSp || r != h.space {
		h.space, h.haveSp = r, true
		h.gen++
	}
}

func (h *queryHist) cellOf(p geom.Point) int32 {
	w, ht := h.space.Width(), h.space.Height()
	if w <= 0 {
		w = 1
	}
	if ht <= 0 {
		ht = 1
	}
	cx := min(max(int((p.X-h.space.MinX)/w*histSide), 0), histSide-1)
	cy := min(max(int((p.Y-h.space.MinY)/ht*histSide), 0), histSide-1)
	return int32(cy*histSide + cx)
}

func (h *queryHist) observe(r geom.Rect) {
	h.extendSpace(r)
	c := h.cellOf(r.Center())
	old := h.window[h.next]
	if old >= 0 {
		h.counts[old]--
	} else {
		h.filled++
	}
	h.window[h.next] = c
	h.counts[c]++
	h.next = (h.next + 1) % len(h.window)
	// The threshold is twice the uniform share, with a small absolute floor
	// so a near-empty window pins nothing; it moves only while the window
	// is filling.
	if t := max(4, 2*h.filled/histCells); t != h.threshold {
		h.threshold = t
		for i := range h.counts {
			h.markHot(int32(i))
		}
		return
	}
	if old >= 0 {
		h.markHot(old)
	}
	h.markHot(c)
}

// markHot brings cell c's bit in hotCells up to date with its count.
func (h *queryHist) markHot(c int32) {
	if bit := uint64(1) << (c % 64); h.counts[c] > h.threshold {
		h.hotCells[c/64] |= bit
	} else {
		h.hotCells[c/64] &^= bit
	}
}

// hot reports whether e's bounds overlap a histogram cell whose
// recent-query share is at least twice the uniform share.
func (h *queryHist) hot(e *cacheEntry) bool {
	if !h.haveSp || h.filled < len(h.window)/4 || h.hotCells == (cellMask{}) {
		return false
	}
	if e.cellGen != h.gen {
		e.cells, e.cellGen = h.cellsOf(e.bounds), h.gen
	}
	m, hc := &e.cells, &h.hotCells
	return m[0]&hc[0]|m[1]&hc[1]|m[2]&hc[2]|m[3]&hc[3] != 0
}

// cellsOf returns the cells between the ones holding b's two corners.
func (h *queryHist) cellsOf(b geom.Rect) (m cellMask) {
	lo := h.cellOf(geom.Point{X: b.MinX, Y: b.MinY})
	hi := h.cellOf(geom.Point{X: b.MaxX, Y: b.MaxY})
	x0, y0 := lo%histSide, lo/histSide
	x1, y1 := hi%histSide, hi/histSide
	if x0 > x1 {
		return m
	}
	row := (uint64(1)<<(x1-x0+1) - 1) << x0
	for y := y0; y <= y1; y++ {
		m[y/4] |= row << (y % 4 * histSide)
	}
	return m
}
