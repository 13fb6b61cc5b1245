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
// at the k-th mutating IO operation (segment create, record append, fsync,
// segment truncate and remove, directory sync — every durability boundary
// of the log). A segment's mapping is a buffer in memory standing for the
// page cache: the log stores records into it, announces each append, and
// Sync writes the stored bytes to the backing file and fsyncs it. At the
// crash point the operation fails, every later operation fails, and what
// reaches the backing files depends on the model:
//
//   - Process crash (PowerLoss false): every store survives — kill -9
//     semantics, where the page cache outlives the process. With
//     TearWrites, the append that crashes leaves half its record behind;
//     without, none of it.
//
//   - Power loss (PowerLoss true): only the stores an fsync covered
//     survive. With TearWrites, the dying OS also wrote back a prefix of
//     the unsynced range in whole 4 KiB pages (the first half of the dirty
//     pages, rounded up), so the tail may be torn mid-record; without, the
//     cut is clean at the last fsync.
//
// A segment is created at its full reservation, zeros on disk, as the log's
// own are. Recovery then opens the same directory with the real filesystem
// and must restore exactly the acknowledged writes. Create one CrashFS per
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

// pageBytes is the unit in which the power-loss model writes back dirty
// stores.
const pageBytes = 4096

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
		for _, f := range c.files {
			f.spill()
		}
		return ErrCrashed
	}
	c.ops++
	return nil
}

type crashFile struct {
	fs      *CrashFS
	backing *os.File
	data    []byte // the mapping: the page cache's view of the segment
	synced  int64  // data[:synced] is on the backing file and stable
	stored  int64  // data[:stored] holds every announced append
	closed  bool
}

// spill writes to the backing file what of the unsynced stores the crash
// leaves there. Called with c.mu held, once, at the crash.
func (f *crashFile) spill() {
	c, end := f.fs, f.stored
	if f.closed || end <= f.synced {
		return
	}
	if c.PowerLoss {
		if !c.TearWrites {
			return
		}
		first := f.synced / pageBytes
		dirty := (end+pageBytes-1)/pageBytes - first
		end = min(end, (first+(dirty+1)/2)*pageBytes)
	}
	f.backing.WriteAt(f.data[f.synced:end], f.synced)
}

// Create counts as a kill point: creating a segment is a durability
// boundary (its directory entry may or may not survive).
func (c *CrashFS) Create(name string, size int64) (wal.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	cf := &crashFile{fs: c, backing: f, data: make([]byte, size)}
	c.files = append(c.files, cf)
	return cf, nil
}

func (c *CrashFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (c *CrashFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (c *CrashFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }

// Truncate counts as a kill point: cutting a crashed segment's zero tail
// must tolerate dying halfway through recovery.
func (c *CrashFS) Truncate(name string, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return err
	}
	return os.Truncate(name, size)
}

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

func (f *crashFile) Data() []byte { return f.data }

// Appended counts each append as a kill point. The log has already stored
// the record when it announces it, so the append that trips the crash
// takes back what the crash model says never landed: the second half of
// the record under TearWrites, all of it otherwise.
func (f *crashFile) Appended(off, end int64) error {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrashed
	}
	if c.ops == c.crashAt {
		cut := off
		if c.TearWrites {
			cut = off + (end-off)/2
		}
		clear(f.data[cut:end])
		f.stored = cut
	} else {
		f.stored = end
	}
	return c.step()
}

// Sync counts as a kill point: the crash fires before any unsynced store
// reaches the backing file, so an acknowledgement gated on this fsync is
// never issued for data that was lost.
func (f *crashFile) Sync() error {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step(); err != nil {
		return err
	}
	if err := f.flush(); err != nil {
		return err
	}
	return f.backing.Sync()
}

// flush writes the unsynced stores to the backing file. Called with c.mu
// held.
func (f *crashFile) flush() error {
	if _, err := f.backing.WriteAt(f.data[f.synced:f.stored], f.synced); err != nil {
		return err
	}
	f.synced = f.stored
	return nil
}

// Close is not a kill point (closing changes no durability state). A clean
// close leaves the stores in the page cache, that is on the backing file,
// and cuts it; a crashed process cuts nothing.
func (f *crashFile) Close(size int64) error {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	f.closed = true
	if c.crashed {
		f.backing.Close()
		return ErrCrashed
	}
	return errors.Join(f.flush(), f.backing.Truncate(size), f.backing.Close())
}

var _ wal.FS = (*CrashFS)(nil)
