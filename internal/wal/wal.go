// Package wal implements the group-commit write-ahead log that makes the
// serving layer's write path durable: an append-only sequence of
// length-prefixed, checksummed records spread over size-rotated segment
// files, each preallocated and mapped so an append is a copy into the page
// cache, with a strict replay reader that stops at the first torn or
// corrupt record. A record is acknowledged (WaitDurable returns) only once
// its durability matches the configured sync policy, so recovery restores
// exactly the acknowledged writes. See docs/DURABILITY.md for the on-disk
// format and the recovery protocol.
package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wazi-index/wazi/internal/obs"
)

// SyncPolicy selects when an appended record counts as durable.
type SyncPolicy int

const (
	// SyncGroup (the default) acknowledges a write only after an fsync
	// covers it, but batches concurrent waiters behind a single fsync
	// (leader/follower group commit): the first waiter issues the fsync,
	// everyone whose record it covers is released together, and waiters
	// that arrive mid-fsync form the next batch. Survives power loss.
	SyncGroup SyncPolicy = iota
	// SyncAlways fsyncs inside every Append before it returns. Survives
	// power loss; the slowest policy, with no batching.
	SyncAlways
	// SyncNone never fsyncs on the write path: a record is acknowledged
	// once stored in the mapped segment, that is in the page cache. Survives
	// kill -9, not power loss. Segment rotation and Close still fsync.
	SyncNone
)

// policyNames are the flag spellings of the policies.
var policyNames = [...]string{SyncGroup: "group", SyncAlways: "always", SyncNone: "none"}

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSync parses the flag spelling of a sync policy; "" is group.
func ParseSync(s string) (SyncPolicy, error) {
	if i := slices.Index(policyNames[:], cmp.Or(s, "group")); i >= 0 {
		return SyncPolicy(i), nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want group, always, or none)", s)
}

const (
	// headerSize is the fixed per-record header: u32 payload length,
	// u32 CRC32-Castagnoli over seq||payload, u64 sequence number, all
	// little-endian, followed by the payload bytes.
	headerSize = 16
	// MaxRecordBytes bounds a record payload; the strict reader treats a
	// larger declared length as corruption, so a flipped length bit can
	// never drive a huge allocation.
	MaxRecordBytes = 1 << 20
	// defaultSegmentBytes is the segment size when Options leaves
	// SegmentBytes unset.
	defaultSegmentBytes = 16 << 20

	segPrefix = "wal-"
	segSuffix = ".seg"
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	errClosed  = errors.New("wal: closed")
)

// Options configures Open.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// Sync is the durability policy (default SyncGroup).
	Sync SyncPolicy
	// SegmentBytes is the size each segment is preallocated to (default
	// 16 MiB); a record that does not fit in the rest rotates first.
	SegmentBytes int64
	// FS substitutes the filesystem; nil means OSFS.
	FS FS
}

// WAL is an append-only record log. Appends are serialized; WaitDurable may
// be called from any number of goroutines. The first filesystem failure
// poisons the log: every later operation returns that sticky error, so a
// caller can never acknowledge a write past a lost one.
type WAL struct {
	opts Options

	mu       sync.Mutex // serializes appends, rotation, truncation
	busyCond *sync.Cond // on mu; signalled when a group fsync lets go of f
	syncBusy bool       // a group-commit fsync holds a reference to f
	f        File       // active segment
	data     []byte     // f's mapping
	segBase  uint64     // first sequence number of the active segment
	segBytes int64      // data[:segBytes] holds the segment's records
	nextSeq  uint64     // sequence number the next Append will take
	torn     bool       // Open's scan found a torn tail and discarded it
	err      error      // sticky first failure; mirrored in errv

	syncMu     sync.Mutex
	syncCond   *sync.Cond
	syncing    bool   // a group-commit leader's fsync is in flight
	durableSeq uint64 // highest sequence number covered by an fsync

	errv atomic.Value // error; lock-free mirror of err

	appends     atomic.Int64
	appendBytes atomic.Int64
	fsyncs      atomic.Int64
	rotations   atomic.Int64
	truncations atomic.Int64

	fsyncObs atomic.Pointer[obs.Histogram]
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Appends counts records appended; AppendedBytes their encoded size.
	Appends       int64
	AppendedBytes int64
	Fsyncs        int64
	Rotations     int64
	Truncations   int64
	// LastSeq is the sequence number of the last appended record (0 when
	// none); DurableSeq the highest covered by an fsync.
	LastSeq    uint64
	DurableSeq uint64
	// Torn reports that Open found the log's tail torn and discarded it.
	Torn bool
	// Err is the sticky error, nil while the log is healthy.
	Err error
}

// Open opens (or creates) the log in opts.Dir. Existing segments are
// scanned to find the last decodable record (cutting a crash's zero tails
// off), and appending always starts in a fresh segment just past it: a torn
// tail is never appended after, so Replay can tell a benign interrupted
// append from mid-log corruption. Corruption fails Open, which then has
// deleted and cut nothing. Records on disk are applied by Replay.
func Open(opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.FS == nil {
		opts.FS = OSFS
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	w := &WAL{opts: opts, nextSeq: 1}
	w.syncCond = sync.NewCond(&w.syncMu)
	w.busyCond = sync.NewCond(&w.mu)
	st, err := w.replayLocked(^uint64(0), nil)
	if err != nil {
		return nil, fmt.Errorf("wal: scanning %s: %w", opts.Dir, err)
	}
	w.nextSeq, w.torn = st.LastSeq+1, st.Torn
	w.durableSeq = st.LastSeq // what's on disk is as durable as it will get
	// Segments wholly past the scan's stopping point hold discarded data
	// and would collide with the fresh segment's name or shadow it.
	segs, err := w.segmentsLocked()
	if err == nil {
		err = w.removeLocked(slices.DeleteFunc(segs, func(sg segment) bool { return sg.base < w.nextSeq }))
	}
	if err != nil {
		return nil, fmt.Errorf("wal: removing stale segments from %s: %w", opts.Dir, err)
	}
	if err := w.openSegmentLocked(opts.SegmentBytes); err != nil {
		return nil, err
	}
	return w, nil
}

// segmentName names the segment whose first record has sequence number
// base. Zero-padded decimal keeps lexical and numeric order identical.
func segmentName(base uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, base, segSuffix)
}

type segment struct {
	base uint64
	path string
}

// segmentsLocked lists the on-disk segments in sequence order.
func (w *WAL) segmentsLocked() ([]segment, error) {
	ents, err := w.opts.FS.ReadDir(w.opts.Dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil || base == 0 {
			continue // not a segment we wrote; leave it alone
		}
		segs = append(segs, segment{base: base, path: filepath.Join(w.opts.Dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// openSegmentLocked creates the fresh active segment named by nextSeq,
// size bytes reserved and mapped, and makes its directory entry durable.
func (w *WAL) openSegmentLocked(size int64) error {
	path := filepath.Join(w.opts.Dir, segmentName(w.nextSeq))
	f, err := w.opts.FS.Create(path, size)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := w.opts.FS.SyncDir(w.opts.Dir); err != nil {
		f.Close(0)
		return fmt.Errorf("wal: syncing %s: %w", w.opts.Dir, err)
	}
	w.f, w.data = f, f.Data()
	w.segBase = w.nextSeq
	w.segBytes = 0
	return nil
}

// AppendRecord appends the canonical encoding of one record to dst and
// returns the extended slice. Exported so tests and fuzz targets can build
// reference encodings; Append uses it internally.
func AppendRecord(dst []byte, seq uint64, payload []byte) []byte {
	n := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload))) // length, crc 0
	dst = append(binary.LittleEndian.AppendUint64(dst, seq), payload...)
	binary.LittleEndian.PutUint32(dst[n+4:], crc32.Checksum(dst[n+8:], castagnoli))
	return dst
}

// Append assigns the next sequence number to payload and copies the record
// into the active segment's mapping, rotating first if it would not fit.
// The copy is the whole write: no syscall. Under SyncAlways the record is
// also fsynced before Append returns; under the other policies durability is
// WaitDurable's job. The caller may reuse payload.
func (w *WAL) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record payload %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	n := int64(headerSize + len(payload))
	if w.segBytes+n > int64(len(w.data)) {
		if err := w.rotateLocked(n); err != nil {
			return 0, err
		}
	}
	seq, off := w.nextSeq, w.segBytes
	AppendRecord(w.data[off:off:off+n], seq, payload)
	if err := w.f.Appended(off, off+n); err != nil {
		w.failLocked(err)
		return 0, w.err
	}
	w.nextSeq++
	w.segBytes += n
	w.appends.Add(1)
	w.appendBytes.Add(n)
	if w.opts.Sync == SyncAlways {
		if err := w.fsyncLocked(seq); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// fsyncLocked syncs the active segment and publishes upTo as durable.
func (w *WAL) fsyncLocked(upTo uint64) error {
	t0 := time.Now()
	if err := w.f.Sync(); err != nil {
		w.failLocked(err)
		return w.err
	}
	w.synced(upTo, t0)
	return nil
}

// synced counts an fsync that began at t0 and publishes upTo as durable.
func (w *WAL) synced(upTo uint64, t0 time.Time) {
	w.fsyncs.Add(1)
	if h := w.fsyncObs.Load(); h != nil {
		h.ObserveSince(t0)
	}
	w.syncMu.Lock()
	if upTo > w.durableSeq {
		w.durableSeq = upTo
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
}

// fsyncGroup syncs the active segment on behalf of a group-commit leader
// and publishes the covered cut as durable. Unlike fsyncLocked it does NOT
// hold w.mu across the Sync syscall: the whole point of group commit is
// that concurrent Appends land while the disk flushes, so the next leader's
// fsync covers them all in one batch. Rotation and Close wait out the
// in-flight sync (waitSyncIdleLocked) before closing the file it holds.
// Called with no locks held.
func (w *WAL) fsyncGroup() error {
	w.mu.Lock()
	if w.err != nil || w.f == nil {
		defer w.mu.Unlock()
		return cmp.Or(w.err, errClosed)
	}
	upTo, f := w.nextSeq-1, w.f
	w.syncBusy = true
	w.mu.Unlock()

	t0 := time.Now()
	serr := f.Sync()

	w.mu.Lock()
	w.syncBusy = false
	w.busyCond.Broadcast()
	if serr != nil {
		w.failLocked(serr)
	}
	err := w.err
	w.mu.Unlock()
	if err == nil {
		w.synced(upTo, t0)
	}
	return err
}

// waitSyncIdleLocked blocks (releasing and reacquiring w.mu via the cond)
// until no group-commit fsync holds a reference to the active segment's
// file. Anything that closes w.f must call this first.
func (w *WAL) waitSyncIdleLocked() {
	for w.syncBusy {
		w.busyCond.Wait()
	}
}

// rotateLocked seals the active segment (fsync, so rotation never reduces
// durability; then cut to its used length) and opens the next one, with room
// for at least need bytes.
func (w *WAL) rotateLocked(need int64) error {
	if w.f == nil {
		return errClosed
	}
	w.waitSyncIdleLocked()
	if err := w.fsyncLocked(w.nextSeq - 1); err != nil {
		return err
	}
	err := w.f.Close(w.segBytes)
	w.f, w.data = nil, nil
	if err == nil {
		err = w.openSegmentLocked(max(w.opts.SegmentBytes, need))
	}
	if err != nil {
		w.failLocked(err)
		return w.err
	}
	w.rotations.Add(1)
	return nil
}

// WaitDurable blocks until the record with sequence number seq is durable
// under the configured policy. This is the acknowledgement gate: a caller
// must not report a write as accepted until WaitDurable returns nil.
func (w *WAL) WaitDurable(seq uint64) error {
	switch w.opts.Sync {
	case SyncAlways, SyncNone:
		// always: Append already fsynced. none: the page cache has the
		// bytes, which is all this policy promises.
		return w.Err()
	}
	w.syncMu.Lock()
	for {
		if w.durableSeq >= seq {
			w.syncMu.Unlock()
			return nil
		}
		if err := w.Err(); err != nil {
			w.syncMu.Unlock()
			return err
		}
		if w.syncing {
			// A leader's fsync is in flight; it may not cover seq, so
			// re-check on wakeup and lead the next batch if needed.
			w.syncCond.Wait()
			continue
		}
		w.syncing = true
		w.syncMu.Unlock()
		// Let ready writers append first, so this fsync covers them: an
		// append makes no syscall, so one P would run each to its own fsync.
		runtime.Gosched()
		err := w.fsyncGroup()
		w.syncMu.Lock()
		w.syncing = false
		w.syncCond.Broadcast()
		if err != nil {
			w.syncMu.Unlock()
			return err
		}
	}
}

// TruncateBefore removes every segment whose records all have sequence
// numbers at or below seq — the checkpoint cut. Call it only once a
// snapshot covering seq is durably on disk (see the Save-truncation
// invariant in docs/DURABILITY.md); the active segment is never removed.
// It returns how many segments were removed.
func (w *WAL) TruncateBefore(seq uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	segs, err := w.segmentsLocked()
	n := 0
	// Segment n's records run up to (at most) the next base minus one.
	for err == nil && n+1 < len(segs) && segs[n].base != w.segBase && segs[n+1].base <= seq+1 {
		n++
	}
	if err == nil {
		err = w.removeLocked(segs[:n])
	}
	if err != nil {
		w.failLocked(err)
		return 0, w.err
	}
	if n > 0 {
		w.truncations.Add(1)
	}
	return n, nil
}

// removeLocked deletes segs and makes the deletions durable.
func (w *WAL) removeLocked(segs []segment) error {
	for _, sg := range segs {
		if err := w.opts.FS.Remove(sg.path); err != nil {
			return err
		}
	}
	if len(segs) == 0 {
		return nil
	}
	return w.opts.FS.SyncDir(w.opts.Dir)
}

// Close seals the log: a final fsync (whatever the policy — a clean
// shutdown leaves everything durable), and the segment unmapped, cut to its
// used length and closed. The WAL must not be used after Close.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitSyncIdleLocked()
	if w.f == nil {
		return w.err
	}
	if w.err == nil {
		w.fsyncLocked(w.nextSeq - 1)
	}
	err := w.f.Close(w.segBytes)
	w.f, w.data = nil, nil
	if err != nil && w.err == nil {
		w.failLocked(err)
	}
	return w.err
}

// Err returns the sticky error, nil while the log is healthy. Lock-free.
func (w *WAL) Err() error {
	if v := w.errv.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// failLocked records the first failure; later operations all return it.
func (w *WAL) failLocked(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("wal: %w", err)
		w.errv.Store(w.err)
	}
}

// SetFsyncObs routes fsync latencies into h (nil detaches).
func (w *WAL) SetFsyncObs(h *obs.Histogram) { w.fsyncObs.Store(h) }

// Stats snapshots the counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	last := w.nextSeq - 1
	w.mu.Unlock()
	w.syncMu.Lock()
	durable := w.durableSeq
	w.syncMu.Unlock()
	return Stats{
		Appends:       w.appends.Load(),
		AppendedBytes: w.appendBytes.Load(),
		Fsyncs:        w.fsyncs.Load(),
		Rotations:     w.rotations.Load(),
		Truncations:   w.truncations.Load(),
		LastSeq:       last,
		DurableSeq:    durable,
		Torn:          w.torn,
		Err:           w.Err(),
	}
}
