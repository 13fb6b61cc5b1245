package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSegmentBytes keeps the segments the fuzz target opens small: each
// Open reserves one.
const fuzzSegmentBytes = 1024

// segmentBytes builds a real segment by appending records through the log
// itself and returning the raw file bytes: as Close leaves them, cut to the
// records, or with crashed as a crash leaves them, the zero tail of the
// reservation still behind the records.
func segmentBytes(tb testing.TB, records int, crashed bool) []byte {
	tb.Helper()
	dir := tb.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncNone, SegmentBytes: fuzzSegmentBytes})
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < records; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("payload-%03d", i))); err != nil {
			tb.Fatal(err)
		}
	}
	if !crashed {
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		tb.Fatalf("no segment produced: %v", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// openReplay writes data as the first segment of a fresh log, opens it and
// replays it whole.
func openReplay(t *testing.T, data []byte) (*WAL, []byte, []uint64, ReplayStats) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(Options{Dir: dir, Sync: SyncNone, SegmentBytes: fuzzSegmentBytes})
	if err != nil {
		t.Fatalf("Open on fuzzed segment: %v", err)
	}
	var replayed []byte
	var seqs []uint64
	st, err := w.Replay(0, func(seq uint64, payload []byte) error {
		replayed = AppendRecord(replayed, seq, payload)
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay errored on fuzzed bytes: %v", err)
	}
	return w, replayed, seqs, st
}

// FuzzWALReplay feeds arbitrary bytes to the strict replay reader as a
// segment file. Whatever the input: no panic, no record applied past a bad
// checksum, and — the round-trip property — the records that ARE applied
// re-encode to exactly a prefix of the input, so a clean log round-trips
// byte-identically and a torn one replays precisely its valid prefix. And
// those records followed only by zeros, the end a crash leaves in a
// preallocated segment, replay in full and not torn.
func FuzzWALReplay(f *testing.F) {
	clean := segmentBytes(f, 8, false) // cut to its used length by Close
	f.Add(clean)
	f.Add(segmentBytes(f, 8, true)) // a crash's zero tail
	zeroHeader := append(append([]byte(nil), clean...), make([]byte, headerSize)...)
	f.Add(append(zeroHeader, 1)) // a zero header, then one non-zero byte
	torn := append(append([]byte(nil), clean...), make([]byte, 40)...)
	torn = append(torn, clean[:headerSize+4]...)
	f.Add(append(torn, make([]byte, 40)...)) // a torn record inside the zero tail
	f.Add(clean[:len(clean)-3])              // torn tail
	f.Add(clean[:headerSize/2])              // torn header
	f.Add([]byte{})
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/3] ^= 0x40 // mid-log corruption
	f.Add(flipped)
	big := append([]byte(nil), clean...)
	big[0] = 0xff // implausible length prefix
	f.Add(big)
	f.Add(segmentBytes(f, 1, false))

	f.Fuzz(func(t *testing.T, data []byte) {
		w, replayed, seqs, st := openReplay(t, data)
		defer w.Close()
		// Round trip: everything applied came verbatim from a prefix of
		// the input — nothing synthesized, nothing applied past a tear.
		if !bytes.HasPrefix(data, replayed) {
			t.Fatalf("replayed records re-encode to %d bytes that are not a prefix of the %d-byte input",
				len(replayed), len(data))
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("applied sequence %d at position %d: replay must apply a gapless prefix", s, i)
			}
		}
		// Appending after replay must keep the log readable: the recovery
		// path always lands writes in a fresh segment past the tear.
		seq, err := w.Append([]byte("post-recovery"))
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if seq != st.LastSeq+1 {
			t.Fatalf("append after recovery got seq %d, want %d", seq, st.LastSeq+1)
		}
		// Zero tail: the valid records, then zeros, replay in full.
		w2, again, _, st2 := openReplay(t, append(replayed, make([]byte, len(data)%(2*headerSize+1))...))
		defer w2.Close()
		if !bytes.Equal(again, replayed) || st2.Torn {
			t.Fatalf("%d valid record bytes and a zero tail replayed %d bytes, torn %v; want all, not torn",
				len(replayed), len(again), st2.Torn)
		}
	})
}
