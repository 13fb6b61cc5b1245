package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// collect replays everything after cut into a slice of payload copies.
func collect(t *testing.T, w *WAL, cut uint64) ([][]byte, ReplayStats) {
	t.Helper()
	var got [][]byte
	st, err := w.Replay(cut, func(seq uint64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, st
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d", i))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	for _, sync := range []SyncPolicy{SyncGroup, SyncAlways, SyncNone} {
		t.Run(sync.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(Options{Dir: dir, Sync: sync})
			if err != nil {
				t.Fatal(err)
			}
			want := payloads(100)
			for _, p := range want {
				seq, err := w.Append(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.WaitDurable(seq); err != nil {
					t.Fatal(err)
				}
			}
			got, st := collect(t, w, 0)
			if len(got) != len(want) || st.LastSeq != 100 || st.Torn {
				t.Fatalf("replay got %d records, LastSeq %d, torn %v; want %d, 100, false",
					len(got), st.LastSeq, st.Torn, len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReplayAfterCutSkipsPrefix(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, p := range payloads(10) {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	got, st := collect(t, w, 7)
	if len(got) != 3 || st.Records != 3 {
		t.Fatalf("replay after cut 7 applied %d records (stats %d), want 3", len(got), st.Records)
	}
	if string(got[0]) != "record-0007" {
		t.Fatalf("first applied record = %q, want record-0007", got[0])
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(5) {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	seq, err := w2.Append([]byte("after-reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("first seq after reopen = %d, want 6", seq)
	}
	got, st := collect(t, w2, 0)
	if len(got) != 6 || st.Torn {
		t.Fatalf("replay after reopen: %d records, torn %v; want 6, false", len(got), st.Torn)
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, p := range payloads(40) {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Rotations == 0 {
		t.Fatalf("no rotations with SegmentBytes=128 after 40 records")
	}
	got, _ := collect(t, w, 0)
	if len(got) != 40 {
		t.Fatalf("replay across segments got %d records, want 40", len(got))
	}
	// Truncate below a mid-log cut: early segments go, replay still yields
	// everything above the cut.
	removed, err := w.TruncateBefore(20)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatalf("TruncateBefore(20) removed no segments despite rotations")
	}
	got, rst := collect(t, w, 20)
	if len(got) != 20 || rst.Torn {
		t.Fatalf("replay after truncate: %d records, torn %v; want 20, false", len(got), rst.Torn)
	}
	// The cut must be conservative: no segment holding a record above 20
	// may have been removed, so replaying after a lower cut still finds
	// every record the remaining segments start with.
	if rst.LastSeq != 40 {
		t.Fatalf("LastSeq after truncate = %d, want 40", rst.LastSeq)
	}
}

func TestTornTailDiscardedOnReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(8) {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop the last 5 bytes of the newest non-empty segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (%d found)", err, len(segs))
	}
	var tornSeg string
	for _, sg := range segs {
		fi, err := os.Stat(sg)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 0 {
			tornSeg = sg
		}
	}
	fi, _ := os.Stat(tornSeg)
	if err := os.Truncate(tornSeg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	// The torn record (seq 8) is discarded; appends resume at 8.
	seq, err := w2.Append([]byte("replacement"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 8 {
		t.Fatalf("seq after torn-tail reopen = %d, want 8", seq)
	}
	got, st := collect(t, w2, 0)
	if len(got) != 8 || st.Torn {
		t.Fatalf("replay after torn-tail reopen: %d records, torn %v; want 8, false", len(got), st.Torn)
	}
	if string(got[7]) != "replacement" {
		t.Fatalf("record 8 = %q, want the replacement record", got[7])
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(10) {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	var seg string
	for _, sg := range segs {
		if fi, _ := os.Stat(sg); fi.Size() > 0 {
			seg = sg
		}
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // flip a bit mid-log
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, st := collect(t, w2, 0)
	if !st.Torn && len(got) == 10 {
		t.Fatalf("replay ignored a flipped bit: %d records, torn %v", len(got), st.Torn)
	}
	if len(got) >= 10 {
		t.Fatalf("replay applied %d records past a corrupt one", len(got))
	}
}

func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := w.Append([]byte(fmt.Sprintf("w%d-%d", g, i)))
				if err != nil {
					errs <- err
					return
				}
				if err := w.WaitDurable(seq); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.DurableSeq != uint64(writers*perWriter) {
		t.Fatalf("durableSeq = %d, want %d", st.DurableSeq, writers*perWriter)
	}
	// Group commit must have batched: strictly fewer fsyncs than appends
	// would be ideal, but single-threaded phases can degrade to 1:1, so
	// just require it never exceeds appends + rotations.
	if st.Fsyncs > st.Appends+st.Rotations+1 {
		t.Fatalf("fsyncs %d exceed appends %d: no batching at all", st.Fsyncs, st.Appends)
	}
	got, rst := collect(t, w, 0)
	if len(got) != writers*perWriter || rst.Torn {
		t.Fatalf("replay got %d records, torn %v; want %d, false", len(got), rst.Torn, writers*perWriter)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// slowFS delays every file Sync, widening the window in which concurrent
// appends can land behind an in-flight group-commit fsync.
type slowFS struct {
	FS
	delay time.Duration
}

func (fs slowFS) Create(name string, size int64) (File, error) {
	f, err := fs.FS.Create(name, size)
	if err != nil {
		return nil, err
	}
	return slowFile{File: f, delay: fs.delay}, nil
}

type slowFile struct {
	File
	delay time.Duration
}

func (f slowFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestGroupCommitBatchesDuringSlowFsync proves group commit actually
// amortizes fsyncs: while a leader's (artificially slow) fsync is in
// flight, other writers' appends must proceed and ride the next leader's
// fsync as one batch. A WAL that held the append lock across the fsync
// syscall would serialize every writer and degrade to one fsync per
// append — exactly what this asserts against.
func TestGroupCommitBatchesDuringSlowFsync(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Sync: SyncGroup, FS: slowFS{FS: OSFS, delay: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := w.Append([]byte(fmt.Sprintf("w%d-%d", g, i)))
				if err != nil {
					errs <- err
					return
				}
				if err := w.WaitDurable(seq); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Appends != writers*perWriter || st.DurableSeq != uint64(writers*perWriter) {
		t.Fatalf("appends %d durable %d, want %d acknowledged", st.Appends, st.DurableSeq, writers*perWriter)
	}
	// 8 writers against a 2ms fsync should batch near 8:1; require at
	// least 2:1 so scheduler noise can't flake the test.
	if st.Fsyncs*2 > st.Appends {
		t.Fatalf("fsyncs %d for %d appends: group commit is not batching", st.Fsyncs, st.Appends)
	}
	got, rst := collect(t, w, 0)
	if len(got) != writers*perWriter || rst.Torn {
		t.Fatalf("replay got %d records, torn %v; want %d, false", len(got), rst.Torn, writers*perWriter)
	}
}

// TestGroupCommitBatchesOnOneP: with one P, an append that makes no
// syscall never hands the P to another writer, so group commit batches only
// because the leader yields before it fsyncs. Two writers alternating on
// one P must then share each fsync, 0.5 per write; without the yield each
// writer runs to its own fsync, 1 per write.
func TestGroupCommitBatchesOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := Open(Options{Dir: t.TempDir(), Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const writers, perWriter = 2, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := w.Append([]byte("record"))
				if err == nil {
					err = w.WaitDurable(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Fsyncs*4 > st.Appends*3 {
		t.Fatalf("%d fsyncs for %d appends by %d writers on one P: group commit is not batching",
			st.Fsyncs, st.Appends, writers)
	}
}

func TestParseSync(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"group", SyncGroup, true}, {"", SyncGroup, true},
		{"always", SyncAlways, true}, {"none", SyncNone, true},
		{"fsync", 0, false},
	} {
		got, err := ParseSync(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Fatalf("ParseSync(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversize append accepted")
	}
	if w.Err() != nil {
		t.Fatalf("oversize append poisoned the log: %v", w.Err())
	}
}

// TestZeroTailEndsTheLog: a segment's records end cleanly where only zeros
// follow, the rest of its reservation; anything else after them is torn.
// Open cuts a crash's zero tail off, and Close cuts the segment it seals.
func TestZeroTailEndsTheLog(t *testing.T) {
	clean := segmentBytes(t, 8, false)
	crashed := segmentBytes(t, 8, true)
	if len(crashed) != fuzzSegmentBytes || !bytes.HasPrefix(crashed, clean) {
		t.Fatalf("crashed segment is %d bytes, want the %d-byte reservation holding the %d closed bytes",
			len(crashed), fuzzSegmentBytes, len(clean))
	}
	tail := func(parts ...[]byte) []byte {
		return bytes.Join(append([][]byte{clean}, parts...), nil)
	}
	zeros := func(n int) []byte { return make([]byte, n) }
	for _, tc := range []struct {
		name string
		data []byte
		torn bool
	}{
		{"cut by Close", clean, false},
		{"zero tail", crashed, false},
		{"zero tail shorter than a header", tail(zeros(headerSize - 1)), false},
		{"zero header, then a byte", tail(zeros(headerSize), []byte{1}), true},
		{"torn record inside the zero tail", tail(zeros(40), clean[:headerSize+4], zeros(40)), true},
		{"torn record, then zeros", tail(clean[:headerSize+4], zeros(100)), true},
	} {
		n, end, torn, err := ScanRecords(tc.data, 1, nil)
		if err != nil || n != 8 || end != len(clean) || torn != tc.torn {
			t.Errorf("%s: %d records ending at %d, torn %v (%v); want 8 ending at %d, torn %v",
				tc.name, n, end, torn, err, len(clean), tc.torn)
		}
	}

	dir := t.TempDir()
	seg := filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(seg, crashed, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(Options{Dir: dir, SegmentBytes: fuzzSegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(len(clean)) {
		t.Fatalf("crashed segment after Open: %v, %v; want it cut to %d bytes", fi, err, len(clean))
	}
	if _, err := w.Append([]byte("after the crash")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, segmentName(9)))
	if want := int64(headerSize + len("after the crash")); err != nil || fi.Size() != want {
		t.Fatalf("segment sealed by Close: %v, %v; want %d bytes", fi, err, want)
	}
}

// TestRotationReservesTheRecord: a segment rotates before a record that
// would not fit in its reservation, and a record larger than SegmentBytes
// gets a segment reserved to its own size.
func TestRotationReservesTheRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{make([]byte, 20), make([]byte, 20), make([]byte, 200), make([]byte, 1)}
	for i, p := range want {
		p[0] = byte(i + 1)
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	got, st := collect(t, w, 0)
	if len(got) != len(want) || st.Torn || w.Stats().Rotations != 3 {
		t.Fatalf("replayed %d records, torn %v, %d rotations; want %d, false, 3",
			len(got), st.Torn, w.Stats().Rotations, len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for seq, size := range map[uint64]int64{1: 36, 2: 36, 3: 216, 4: 17} {
		if fi, err := os.Stat(filepath.Join(dir, segmentName(seq))); err != nil || fi.Size() != size {
			t.Errorf("segment %d: %v, %v; want %d bytes", seq, fi, err, size)
		}
	}
}
