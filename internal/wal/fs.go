package wal

import "os"

// FS abstracts every filesystem operation the log performs so tests can
// substitute fault-injecting implementations (internal/indextest.CrashFS
// kills the write path at any chosen IO boundary). Production code uses
// OSFS.
type FS interface {
	// Create makes the new segment name (failing if it exists), reserves
	// size bytes of disk for it and maps them shared and writable.
	Create(name string, size int64) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Truncate(name string, size int64) error
	Remove(name string) error
	MkdirAll(name string, perm os.FileMode) error
	// SyncDir fsyncs the directory itself, making entry creation and
	// removal durable (required after segment create/remove on POSIX).
	SyncDir(name string) error
}

// File is one segment: its reservation on disk, mapped shared and writable.
type File interface {
	// Data is the mapping. A store into it is a store into the page cache:
	// it outlives the process at once, and Sync makes it durable.
	Data() []byte
	// Appended reports that Data[off:end] now holds a record: a no-op for
	// the OS file, a kill point for a fault-injecting one.
	Appended(off, end int64) error
	// Sync flushes the file's data, stores through Data included, to
	// stable storage.
	Sync() error
	// Close unmaps the file, cuts it to size bytes and closes it.
	Close(size int64) error
}

type osFS struct{}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }

func (osFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
