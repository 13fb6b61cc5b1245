package wal

import (
	"os"
	"syscall"
)

// reserve allocates size bytes of disk to f with fallocate(2); a filesystem
// that cannot gets the zeros written instead.
func reserve(f *os.File, size int64) error {
	if err := syscall.Fallocate(int(f.Fd()), 0, 0, size); err != syscall.EOPNOTSUPP {
		return err
	}
	return writeZeros(f, size)
}
