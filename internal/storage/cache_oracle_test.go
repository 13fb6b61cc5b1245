package storage

import (
	"container/list"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
)

// The reference block-cache policy: a container/list LRU behind a map, and a
// histogram whose hot test walks the cells of a page's bounds on every call.
// This is the cache DiskStore ran before its intrusive list, dense table and
// cell masks; TestCacheMatchesOracle and FuzzCachePolicy hold the store to
// it counter for counter and in resident LRU order.

type oracleEntry struct {
	id     PageID
	bounds geom.Rect
	pins   int
}

type oracleCache struct {
	capPages int
	entries  map[PageID]*list.Element
	lru      *list.List // front = most recently used
	hist     oracleHist

	hits, misses, evictions, hotRetained int64
}

func newOracleCache(capPages, window int) *oracleCache {
	o := &oracleCache{capPages: capPages}
	o.drop()
	o.hist.side = histSide
	o.hist.counts = make([]int, histSide*histSide)
	o.hist.window = make([]int32, window)
	for i := range o.hist.window {
		o.hist.window[i] = -1
	}
	return o
}

// drop is DropCaches: counters and histogram survive.
func (o *oracleCache) drop() {
	o.entries = make(map[PageID]*list.Element)
	o.lru = list.New()
}

func (o *oracleCache) get(id PageID) *oracleEntry {
	el, ok := o.entries[id]
	if !ok {
		return nil
	}
	o.lru.MoveToFront(el)
	return el.Value.(*oracleEntry)
}

func (o *oracleCache) insert(id PageID, bounds geom.Rect) *oracleEntry {
	if el, ok := o.entries[id]; ok {
		e := el.Value.(*oracleEntry)
		e.bounds = bounds
		o.lru.MoveToFront(el)
		return e
	}
	e := &oracleEntry{id: id, bounds: bounds}
	o.entries[id] = o.lru.PushFront(e)
	for o.lru.Len() > o.capPages {
		o.evictions++
		o.hotRetained += int64(o.evictOne())
	}
	return e
}

func (o *oracleCache) evictOne() (hotSkips int) {
	victim := o.lru.Back()
	if victim == nil {
		return 0
	}
	el := victim
	foundCold := false
	for i := 0; el != nil && i < evictScan; i++ {
		e := el.Value.(*oracleEntry)
		if e.pins > 0 {
			el = el.Prev()
			continue
		}
		if !o.hist.hot(e.bounds) {
			victim = el
			foundCold = true
			break
		}
		hotSkips++
		el = el.Prev()
	}
	if !foundCold {
		hotSkips = 0
	}
	o.lru.Remove(victim)
	delete(o.entries, victim.Value.(*oracleEntry).id)
	return hotSkips
}

// access is View/Page: a hit, or a miss that faults the page in with the
// bounds its slot header holds.
func (o *oracleCache) access(id PageID, bounds geom.Rect) *oracleEntry {
	if e := o.get(id); e != nil {
		o.hits++
		return e
	}
	o.misses++
	return o.insert(id, bounds)
}

func (o *oracleCache) alloc(id PageID, bounds geom.Rect) {
	o.insert(id, bounds)
	o.hist.extendSpace(bounds)
}

func (o *oracleCache) update(id PageID, bounds geom.Rect) {
	if e := o.get(id); e != nil {
		e.bounds = bounds
	} else {
		o.insert(id, bounds)
	}
	o.hist.extendSpace(bounds)
}

func (o *oracleCache) free(id PageID) {
	if el, ok := o.entries[id]; ok {
		o.lru.Remove(el)
		delete(o.entries, id)
	}
}

func (o *oracleCache) order() []PageID {
	var ids []PageID
	for el := o.lru.Front(); el != nil; el = el.Next() {
		ids = append(ids, el.Value.(*oracleEntry).id)
	}
	return ids
}

type oracleHist struct {
	side   int
	space  geom.Rect
	haveSp bool
	counts []int
	window []int32
	next   int
	filled int
}

func (h *oracleHist) extendSpace(r geom.Rect) {
	if !h.haveSp {
		h.space, h.haveSp = r, true
		return
	}
	h.space = h.space.Union(r)
}

func (h *oracleHist) cellOf(p geom.Point) int32 {
	w, ht := h.space.Width(), h.space.Height()
	if w <= 0 {
		w = 1
	}
	if ht <= 0 {
		ht = 1
	}
	cx := int((p.X - h.space.MinX) / w * float64(h.side))
	cy := int((p.Y - h.space.MinY) / ht * float64(h.side))
	cx = min(max(cx, 0), h.side-1)
	cy = min(max(cy, 0), h.side-1)
	return int32(cy*h.side + cx)
}

func (h *oracleHist) observe(r geom.Rect) {
	h.extendSpace(r)
	c := h.cellOf(r.Center())
	if old := h.window[h.next]; old >= 0 {
		h.counts[old]--
	} else {
		h.filled++
	}
	h.window[h.next] = c
	h.counts[c]++
	h.next = (h.next + 1) % len(h.window)
}

func (h *oracleHist) hot(bounds geom.Rect) bool {
	if !h.haveSp || h.filled < len(h.window)/4 {
		return false
	}
	threshold := 2 * h.filled / (h.side * h.side)
	if threshold < 4 {
		threshold = 4
	}
	lo := h.cellOf(geom.Point{X: bounds.MinX, Y: bounds.MinY})
	hi := h.cellOf(geom.Point{X: bounds.MaxX, Y: bounds.MaxY})
	x0, y0 := int(lo)%h.side, int(lo)/h.side
	x1, y1 := int(hi)%h.side, int(hi)/h.side
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			if h.counts[y*h.side+x] > threshold {
				return true
			}
		}
	}
	return false
}

// residentOrder lists the store's cached pages, most recently used first.
func (d *DiskStore) residentOrder() []PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var ids []PageID
	for e := d.cache.head.next; e != &d.cache.head; e = e.next {
		ids = append(ids, e.id)
	}
	return ids
}

// runCachePolicy drives a DiskStore and the oracle with one op stream and
// fails at the first op after which a counter or the resident LRU order
// differs. The first two bytes pick CachePages (1–16) and HistWindow
// (16–128, or the default 1024 for 255: only a window longer than 640
// queries moves the hot threshold); each later byte is one op, its low bits
// the kind and the rest a selector. It returns the store's final counters.
func runCachePolicy(t *testing.T, ops []byte) CacheStats {
	cachePages, window := 4, 32
	if len(ops) >= 2 {
		cachePages, window = 1+int(ops[0])%16, 16+int(ops[1])%113
		if ops[1] == 255 {
			window = 1024
		}
		ops = ops[2:]
	}
	d, err := CreatePageFile(filepath.Join(t.TempDir(), "policy.pages"), DiskOptions{
		SlotCap: 4, CachePages: cachePages, HistWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	o := newOracleCache(cachePages, window)

	type held struct {
		v PageView
		e *oracleEntry
	}
	var (
		live   []PageID
		bounds = map[PageID]geom.Rect{}
		pinned []held
		drift  float64 // the query hotspot's x, moving along the data
		grow   float64 // how far queries reach past the unit square
	)
	isPinned := func(id PageID) bool {
		return slices.ContainsFunc(pinned, func(h held) bool { return h.e.id == id })
	}
	// cell is a page's bounds: one of 64 tiles of the unit square, some
	// spanning two tiles so masks cover more than one histogram cell.
	cell := func(sel int) geom.Rect {
		x, y := float64(sel%8)/8, float64(sel/8%8)/8
		w := 1.0 / 8
		if sel%5 == 0 {
			w = 2.0 / 8
		}
		return geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + 1.0/8}
	}
	pick := func(sel int, unpinned bool) (PageID, bool) {
		for off := range live {
			id := live[(sel+off)%len(live)]
			if !unpinned || !isPinned(id) {
				return id, true
			}
		}
		return NoPage, false
	}
	check := func(step int, op string) {
		t.Helper()
		cs := d.CacheStats()
		want := CacheStats{Hits: o.hits, Misses: o.misses, Evictions: o.evictions,
			HotRetained: o.hotRetained, Resident: o.lru.Len(), Capacity: cachePages}
		if cs != want {
			t.Fatalf("op %d (%s): stats %+v, oracle %+v", step, op, cs, want)
		}
		if got, want := d.residentOrder(), o.order(); !slices.Equal(got, want) {
			t.Fatalf("op %d (%s): LRU order %v, oracle %v", step, op, got, want)
		}
	}

	for step, b := range ops {
		sel := int(b >> 3)
		var op string
		switch b % 8 {
		case 0: // alloc: empty, single-slot and chained pages
			op = "alloc"
			r := cell(sel)
			id := d.Alloc(somePoints(sel%10, int64(step)), r)
			o.alloc(id, r)
			live = append(live, id)
			bounds[id] = r
		case 1: // view, held across whatever comes next
			op = "view held"
			if id, ok := pick(sel, false); ok && len(pinned) < 6 {
				v := d.View(id)
				e := o.access(id, bounds[id])
				e.pins++
				pinned = append(pinned, held{v, e})
			}
		case 2: // view released at once
			op = "view"
			if id, ok := pick(sel, false); ok {
				v := d.View(id)
				o.access(id, bounds[id])
				v.Release()
			}
		case 3: // release the oldest held view
			op = "release"
			if len(pinned) > 0 {
				pinned[0].v.Release()
				pinned[0].e.pins--
				pinned = pinned[1:]
			}
		case 4: // Page, the mutable-staging read
			op = "page"
			if id, ok := pick(sel, false); ok {
				d.Page(id)
				o.access(id, bounds[id])
			}
		case 5: // a query at the drifting hotspot; now and then one past the space
			op = "observe"
			drift += 0.01
			if drift > 1.5 { // past the pages' x extent: the space grows step by step
				drift = 0
			}
			r := geom.Rect{MinX: drift, MinY: 0.4, MaxX: drift + 0.02, MaxY: 0.45}
			if sel == 31 {
				grow += 0.05
				r = geom.Rect{MinX: -grow, MinY: -grow, MaxX: 1 + grow, MaxY: 0.5}
			}
			d.ObserveQuery(r)
			o.hist.observe(r)
		case 6: // update or free an unpinned page
			if id, ok := pick(sel, true); ok {
				if sel%2 == 0 {
					op = "update"
					r := cell(sel / 2)
					d.Update(id, somePoints(sel%10, int64(step)), r)
					o.update(id, r)
					bounds[id] = r
				} else {
					op = "free"
					d.Free(id)
					o.free(id)
					live = slices.DeleteFunc(live, func(l PageID) bool { return l == id })
					delete(bounds, id)
				}
			}
		case 7:
			op = "drop caches"
			d.DropCaches()
			o.drop()
		}
		check(step, op)
	}
	for _, h := range pinned {
		h.v.Release()
	}
	return d.CacheStats()
}

// TestCacheMatchesOracle runs seeded op streams over CachePages 1–16 and
// HistWindow 16–128, then four long streams over the default window.
func TestCacheMatchesOracle(t *testing.T) {
	var total CacheStats
	for seed := int64(1); seed <= 28; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2+600)
		if seed > 24 {
			ops = make([]byte, 2+3000)
		}
		rng.Read(ops)
		if seed > 24 {
			ops[1] = 255
		}
		// Bias a third of the short streams and all long ones toward
		// queries, so the window fills and hot cells decide evictions.
		if seed%3 == 0 || seed > 24 {
			for i := 2; i < len(ops); i += 2 {
				ops[i] = ops[i]&^7 | 5
			}
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			cs := runCachePolicy(t, ops)
			total.Evictions += cs.Evictions
			total.HotRetained += cs.HotRetained
		})
	}
	// The streams must reach the workload-aware half of the policy.
	if total.Evictions == 0 || total.HotRetained == 0 {
		t.Fatalf("streams evicted %d pages and retained %d hot ones; both must be positive",
			total.Evictions, total.HotRetained)
	}
	t.Logf("%d evictions, %d hot retentions", total.Evictions, total.HotRetained)
}

// FuzzCachePolicy holds the block cache to the oracle on any op stream.
func FuzzCachePolicy(f *testing.F) {
	f.Add([]byte{3, 16, 0, 8, 16, 24, 32, 40, 5, 5, 5, 5, 5, 5, 5, 5, 5, 1, 9, 2, 10, 0, 0, 3, 7, 4, 6, 14})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 3, 2, 4, 6, 7, 0, 2})
	f.Add([]byte{15, 112, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 0, 5, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) { runCachePolicy(t, ops) })
}

// TestHotMatchesOracle checks the histogram alone, after every query,
// against the reference hot test for 64 long-lived entries, so cell masks
// taken before the space grew must be retaken. Queries drift past the
// entries' extent and now and then reach far beyond it.
func TestHotMatchesOracle(t *testing.T) {
	for _, window := range []int{16, 100, 1024} {
		var h queryHist
		h.init(window)
		o := newOracleCache(1, window)
		entries := make([]*cacheEntry, 64)
		for i := range entries {
			x, y := float64(i%8)/8, float64(i/8)/8
			entries[i] = &cacheEntry{}
			entries[i].set(nil, geom.Rect{MinX: x, MinY: y, MaxX: x + 0.2, MaxY: y + 0.1}, false)
			h.extendSpace(entries[i].bounds)
			o.hist.extendSpace(entries[i].bounds)
		}
		rng := rand.New(rand.NewSource(int64(window)))
		hot := 0
		for q := 0; q < 2*window+200; q++ {
			x := float64(q%150) / 100
			r := geom.Rect{MinX: x, MinY: 0.4, MaxX: x + 0.02, MaxY: 0.45}
			if rng.Intn(40) == 0 {
				r = geom.Rect{MinX: -rng.Float64(), MinY: -rng.Float64(), MaxX: 1 + rng.Float64(), MaxY: 1}
			}
			h.observe(r)
			o.hist.observe(r)
			for i, e := range entries {
				got, want := h.hot(e), o.hist.hot(e.bounds)
				if got != want {
					t.Fatalf("window %d, query %d: entry %d hot = %v, oracle %v", window, q, i, got, want)
				}
				if got {
					hot++
				}
			}
		}
		if hot == 0 {
			t.Fatalf("window %d: no entry was ever hot", window)
		}
	}
}
