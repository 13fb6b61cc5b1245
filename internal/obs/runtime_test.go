package obs

import (
	"runtime"
	"testing"
	"time"
)

// TestRuntimePauseRingWraparound pins the PauseNs circular-buffer handling
// in Sample: when more than 256 GC cycles complete between two samples, the
// runtime's ring has wrapped and only the newest 256 pauses still exist —
// the sampler must feed exactly those 256 into the histogram, and later
// samples must feed exactly the cycles completed since, never re-observing
// a pause.
func TestRuntimePauseRingWraparound(t *testing.T) {
	r := NewRuntime()
	r.ttl = 0 // every Sample refreshes, so the test controls the windows

	first := r.Sample()
	fed0 := r.pause.Snapshot().Count

	// Blow past the 256-entry PauseNs ring between samples. runtime.GC runs
	// a full synchronous cycle, so NumGC advances by at least 300 (the
	// background collector may add more).
	for i := 0; i < 300; i++ {
		runtime.GC()
	}
	second := r.Sample()
	if cycles := second.NumGC - first.NumGC; cycles < 300 {
		t.Fatalf("NumGC advanced by %d, want >= 300 forced cycles", cycles)
	}
	fed1 := r.pause.Snapshot().Count
	if got := fed1 - fed0; got != 256 {
		t.Fatalf("wrapped sample fed %d pauses, want exactly 256 (the ring's worth, no more, none twice)", got)
	}

	// The non-wrapping path after a wrap: each subsequent cycle is observed
	// exactly once.
	runtime.GC()
	runtime.GC()
	third := r.Sample()
	fed2 := r.pause.Snapshot().Count
	wantDelta := int64(third.NumGC - second.NumGC)
	if got := fed2 - fed1; got != wantDelta {
		t.Fatalf("post-wrap sample fed %d pauses for %d new cycles; pauses double-counted or dropped", got, wantDelta)
	}
	if wantDelta < 2 {
		t.Fatalf("NumGC advanced by %d after two forced GCs, want >= 2", wantDelta)
	}
}

// TestRuntimePauseHook asserts the pause hook fires once per newly observed
// cycle with the pause duration, including across a ring wraparound, and
// that its call count always matches the histogram feed.
func TestRuntimePauseHook(t *testing.T) {
	r := NewRuntime()
	r.ttl = 0
	var calls int
	var last time.Duration
	r.SetPauseHook(func(d time.Duration) { calls++; last = d })

	before := r.Sample() // hook registered after construction; baseline feed
	base := calls
	runtime.GC()
	after := r.Sample()
	want := int(after.NumGC - before.NumGC)
	if got := calls - base; got != want {
		t.Fatalf("hook fired %d times for %d cycles", got, want)
	}
	if want > 0 && last <= 0 {
		t.Fatalf("hook saw pause %v, want > 0", last)
	}
}

func TestRuntimeSampler(t *testing.T) {
	r := NewRuntime()
	before := r.Sample()
	runtime.GC()
	r.last = time.Time{} // expire the TTL cache deterministically
	after := r.Sample()
	if after.NumGC <= before.NumGC {
		t.Fatalf("NumGC did not advance: %d -> %d", before.NumGC, after.NumGC)
	}
	if r.PauseHistogram().Count() == 0 {
		t.Fatal("GC pause histogram not fed after a forced GC")
	}

	reg := NewRegistry()
	r.Register(reg)
	snap := reg.Snapshot()
	for _, name := range []string{
		"wazi_go_heap_alloc_bytes", "wazi_go_goroutines",
		"wazi_go_gc_cycles_total", "wazi_go_gc_pause_seconds",
	} {
		if snap.Get(name) == nil {
			t.Fatalf("runtime metric %s not registered", name)
		}
	}
	if snap.Get("wazi_go_heap_alloc_bytes").Value <= 0 {
		t.Fatal("heap_alloc gauge should be positive")
	}
}
