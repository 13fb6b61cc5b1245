package indextest

import (
	"errors"
	"os"
	"sync"

	"github.com/wazi-index/wazi/internal/wal"
)

// ErrCrashed is returned by every CrashFS operation at and after the
// injected crash point.
var ErrCrashed = errors.New("indextest: simulated crash")

// CrashFS implements wal.FS over the real filesystem with a crash injected
// at the k-th mutating IO operation (segment create, record write, fsync,
// segment remove, directory sync — every durability boundary of the log).
// At the crash point the operation fails, every later operation fails, and
// what remains on disk depends on the model:
//
//   - Process crash (PowerLoss false): writes pass straight through, so
//     everything written before the crash survives — kill -9 semantics,
//     where the page cache outlives the process. With TearWrites, the
//     crashing write leaves a half-written record.
//
//   - Power loss (PowerLoss true): writes are buffered per file and only
//     reach the backing file on Sync — un-synced data is lost at the
//     crash. With TearWrites, a half of each pending buffer is flushed
//     instead, leaving a torn un-synced tail; without, the cut is clean at
//     the last fsync.
//
// Recovery then opens the same directory with the real filesystem and must
// restore exactly the acknowledged writes. Create one CrashFS per
// simulated process lifetime; it is safe for concurrent use.
type CrashFS struct {
	// PowerLoss and TearWrites select the crash model above. Set before
	// first use.
	PowerLoss  bool
	TearWrites bool

	mu      sync.Mutex
	crashAt int // crash at the k-th counted op; negative means never
	ops     int
	crashed bool
	files   []*crashFile
}

// NewCrashFS returns a CrashFS that crashes at the k-th counted IO
// operation (0-based); a negative k never crashes, which is how a harness
// discovers the operation count of a clean run.
func NewCrashFS(k int) *CrashFS {
	return &CrashFS{crashAt: k}
}

// Ops returns how many counted operations have been performed.
func (c *CrashFS) Ops() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Crashed reports whether the crash point was reached.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// step counts one mutating operation, tripping the crash when the count
// reaches the injection point. Called with c.mu held.
func (c *CrashFS) step() error {
	if c.crashed {
		return ErrCrashed
	}
	if c.ops == c.crashAt {
		c.crashed = true
		c.spillLocked()
		return ErrCrashed
	}
	c.ops++
	return nil
}

// spillLocked materializes the crash's on-disk outcome for every open
// file's pending buffer: a torn prefix under TearWrites, nothing
// otherwise. Only meaningful under PowerLoss; the process-crash model has
// no pending buffers.
func (c *CrashFS) spillLocked() {
	if !c.PowerLoss {
		return
	}
	for _, f := range c.files {
		if len(f.buf) == 0 {
			continue
		}
		if c.TearWrites {
			f.backing.Write(f.buf[:len(f.buf)/2])
		}
		f.buf = nil
	}
}

type crashFile struct {
	fs      *CrashFS
	backing *os.File
	buf     []byte // pending un-synced writes (PowerLoss model only)
}

// OpenFile counts as a kill point: creating a segment is a durability
// boundary (its directory entry may or may not survive).
func (c *CrashFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	cf := &crashFile{fs: c, backing: f}
	c.files = append(c.files, cf)
	return cf, nil
}

func (c *CrashFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (c *CrashFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (c *CrashFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }

// Remove counts as a kill point: log truncation must tolerate dying
// between segment removals.
func (c *CrashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return err
	}
	return os.Remove(name)
}

// SyncDir counts as a kill point: it is the barrier that makes segment
// creation and removal durable.
func (c *CrashFS) SyncDir(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return err
	}
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Write counts as a kill point. Under TearWrites the crashing write leaves
// half the record behind (process crash) or half-buffered (power loss, the
// half that spillLocked may then tear again — any prefix is a legal crash
// outcome).
func (f *crashFile) Write(p []byte) (int, error) {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	wasCrashed := c.crashed
	if err := c.step(); err != nil {
		if c.TearWrites && !wasCrashed {
			// The write that trips the crash tears: its first half lands
			// on disk (in the power-loss model that half-page counts as
			// flushed by the dying OS — a legal crash outcome either way).
			f.backing.Write(p[:len(p)/2])
		}
		return 0, err
	}
	if c.PowerLoss {
		f.buf = append(f.buf, p...)
		return len(p), nil
	}
	return f.backing.Write(p)
}

// Sync counts as a kill point: the crash fires before any pending data
// reaches the backing file, so an acknowledgement gated on this fsync is
// never issued for data that was lost.
func (f *crashFile) Sync() error {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return err
	}
	if len(f.buf) > 0 {
		if _, err := f.backing.Write(f.buf); err != nil {
			return err
		}
		f.buf = nil
	}
	return f.backing.Sync()
}

// Close is not a kill point (closing changes no durability state). A clean
// close flushes pending bytes to the page cache — only a crash loses them.
func (f *crashFile) Close() error {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		f.backing.Close()
		return ErrCrashed
	}
	if len(f.buf) > 0 {
		if _, err := f.backing.Write(f.buf); err != nil {
			f.backing.Close()
			return err
		}
		f.buf = nil
	}
	return f.backing.Close()
}

func (f *crashFile) Name() string { return f.backing.Name() }

var _ wal.FS = (*CrashFS)(nil)
