package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is what the slow log keeps of one request: a copy of the fixed
// fields of its record, taken only when the threshold is crossed.
type SlowEntry struct {
	Route   string    `json:"route"`
	Code    int       `json:"code"`
	Start   time.Time `json:"start"`
	TotalNS int64     `json:"total_ns"`
	// Phases sums to TotalNS exactly: unattributed is the remainder.
	Phases Phases `json:"phases"`
}

// SlowLog keeps the most recent slow requests in a fixed-size ring. A
// request qualifies when its total duration reaches the threshold, whatever
// its status code. The ring overwrites oldest-first, so under a storm of
// slow requests the log always shows the latest evidence.
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	ring      []SlowEntry
	next      int
	n         int
	recorded  atomic.Int64
}

// NewSlowLog returns a slow log holding up to size entries of at least
// threshold total duration. A non-positive size defaults to 128; a zero
// threshold records every finished request (useful in tests).
func NewSlowLog(size int, threshold time.Duration) *SlowLog {
	if size <= 0 {
		size = 128
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, size)}
}

// Recorded returns the number of entries recorded since start (including
// those since overwritten).
func (l *SlowLog) Recorded() int64 {
	if l == nil {
		return 0
	}
	return l.recorded.Load()
}

// Record stores e if it qualifies, reporting whether it was kept.
func (l *SlowLog) Record(e SlowEntry) bool {
	if l == nil || time.Duration(e.TotalNS) < l.threshold {
		return false
	}
	l.mu.Lock()
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.mu.Unlock()
	l.recorded.Add(1)
	return true
}

// Snapshot returns the retained entries, newest first.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, l.n)
	for i := 0; i < l.n; i++ {
		// next-1 is the most recently written slot.
		idx := (l.next - 1 - i + len(l.ring)*2) % len(l.ring)
		out = append(out, l.ring[idx])
	}
	return out
}
