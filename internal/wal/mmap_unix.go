//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package wal

import (
	"errors"
	"os"
	"syscall"
)

// Create makes the segment, reserves its bytes, so a full disk fails here
// and not as SIGBUS in a store, and maps them. A store into a MAP_SHARED
// file mapping lands in the page cache a write(2) would fill, so an fsync(2)
// of the descriptor covers it.
func (osFS) Create(name string, size int64) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	o := &osFile{f: f}
	if err = reserve(f, size); err == nil {
		o.data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	}
	if err != nil {
		f.Close()
		os.Remove(name)
		return nil, err
	}
	return o, nil
}

// writeZeros reserves size bytes the portable way, by writing them once.
func writeZeros(f *os.File, size int64) error {
	_, err := f.WriteAt(make([]byte, size), 0)
	return err
}

type osFile struct {
	f    *os.File
	data []byte
}

func (o *osFile) Data() []byte              { return o.data }
func (o *osFile) Appended(_, _ int64) error { return nil }
func (o *osFile) Sync() error               { return o.f.Sync() }

func (o *osFile) Close(size int64) error {
	return errors.Join(syscall.Munmap(o.data), o.f.Truncate(size), o.f.Close())
}
