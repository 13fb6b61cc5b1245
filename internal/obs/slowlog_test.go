package obs

import (
	"testing"
	"time"
)

func TestSlowLogRingAndThreshold(t *testing.T) {
	l := NewSlowLog(3, 10*time.Millisecond)
	if l.Record(SlowEntry{Route: "fast", TotalNS: int64(time.Millisecond)}) {
		t.Fatal("fast request should not qualify")
	}
	for i := 0; i < 5; i++ {
		e := SlowEntry{Route: "slow", Code: 503, TotalNS: int64(time.Second) + int64(i)}
		if !l.Record(e) {
			t.Fatal("slow request should qualify")
		}
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("ring kept %d, want 3", len(got))
	}
	// Newest first: totals 4, 3, 2 (by the +i stamp).
	for i, want := range []int64{4, 3, 2} {
		if got[i].TotalNS != int64(time.Second)+want {
			t.Fatalf("ring[%d] = %d, want second+%d", i, got[i].TotalNS, want)
		}
	}
	if l.Recorded() != 5 {
		t.Fatalf("recorded = %d, want 5", l.Recorded())
	}

	// Zero threshold records everything; nil log is inert.
	all := NewSlowLog(0, 0)
	if !all.Record(SlowEntry{}) {
		t.Fatal("zero-threshold log should record everything")
	}
	var nl *SlowLog
	if nl.Record(SlowEntry{TotalNS: 1 << 40}) || nl.Snapshot() != nil || nl.Recorded() != 0 {
		t.Fatal("nil slow log should be inert")
	}
}
