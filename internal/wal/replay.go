package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// ReplayStats describes what a Replay pass saw.
type ReplayStats struct {
	// Records counts records applied (sequence number above the caller's
	// cut); LastSeq is the last valid sequence number on disk, applied or
	// not.
	Records int
	LastSeq uint64
	// Torn reports that replay stopped at bytes that are neither a record
	// nor the zero tail, with no later segment resuming the sequence: the
	// log's tail was lost mid-append, or corrupted. A tear that a later
	// segment resumes after (a previous Open discarded it) is benign.
	Torn bool
}

var zero = []byte{0}

// ScanRecords decodes records from one segment's bytes, calling fn for each
// valid record in order. The first record must carry sequence number base
// and each record the successor of the previous. It stops at the first
// bytes that do not decode (short header, implausible length, checksum
// mismatch, sequence break), reporting how many records were decoded and
// the offset end just past them. Those bytes are the segment's clean end if
// they are all zero — the preallocated tail, whose all-zero header no record
// has, since sequence numbers start at 1 — and torn otherwise. fn's error
// aborts the scan and is returned.
func ScanRecords(data []byte, base uint64, fn func(seq uint64, payload []byte) error) (n, end int, torn bool, err error) {
	expected := base
	for end < len(data) {
		rest := data[end:]
		if len(rest) < headerSize {
			break
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		seq := binary.LittleEndian.Uint64(rest[8:16])
		if length > MaxRecordBytes || int(length) > len(rest)-headerSize {
			break
		}
		payload := rest[headerSize : headerSize+int(length)]
		if crc32.Checksum(rest[8:headerSize+int(length)], castagnoli) != crc || seq != expected {
			break
		}
		if fn != nil {
			if err := fn(seq, payload); err != nil {
				return n, end, false, err
			}
		}
		n++
		expected++
		end += headerSize + int(length)
	}
	return n, end, bytes.Count(data[end:], zero) != len(data)-end, nil
}

// Replay reads every segment in order and calls fn for each record whose
// sequence number is strictly above after (the caller's checkpoint cut),
// stopping at the first torn or corrupt record exactly as ScanRecords
// does. It never applies a record past a bad one. Safe only while no
// appends are in flight — callers replay before serving.
func (w *WAL) Replay(after uint64, fn func(seq uint64, payload []byte) error) (ReplayStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.replayLocked(after, fn)
}

// replayLocked is Replay. It also cuts off the zero tail a crash left on a
// segment; Open's scan meets them all.
func (w *WAL) replayLocked(after uint64, fn func(seq uint64, payload []byte) error) (ReplayStats, error) {
	segs, err := w.segmentsLocked()
	if err != nil {
		return ReplayStats{}, err
	}
	var st ReplayStats
	var expected uint64
	for i, sg := range segs {
		if i == 0 {
			expected = sg.base
		} else if sg.base != expected {
			// A gap between segments: everything from here on is
			// unreachable discarded data.
			st.Torn = true
			break
		}
		var data []byte
		if w.f != nil && sg.base == w.segBase {
			data = w.data[:w.segBytes] // the active segment: read its mapping
		} else if data, err = w.opts.FS.ReadFile(sg.path); err != nil {
			return st, fmt.Errorf("reading segment %s: %w", sg.path, err)
		}
		n, end, torn, ferr := ScanRecords(data, sg.base, func(seq uint64, payload []byte) error {
			if seq <= after || fn == nil {
				return nil
			}
			st.Records++
			return fn(seq, payload)
		})
		expected = sg.base + uint64(n)
		if ferr != nil {
			return st, ferr
		}
		if !torn && end < len(data) {
			if err := w.opts.FS.Truncate(sg.path, int64(end)); err != nil {
				return st, fmt.Errorf("cutting the zero tail of %s: %w", sg.path, err)
			}
		}
		if torn {
			if i+1 < len(segs) && segs[i+1].base == expected {
				// Benign: a later Open discarded this tail and resumed
				// the sequence in a fresh segment.
				continue
			}
			st.Torn = true
			break
		}
	}
	if expected > 0 {
		st.LastSeq = expected - 1
	}
	return st, nil
}
