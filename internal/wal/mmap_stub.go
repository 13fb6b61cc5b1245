//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package wal

import "errors"

// Segments are mapped files: without mmap, Open fails, as page files do.
func (osFS) Create(string, int64) (File, error) {
	return nil, errors.New("wal: the write-ahead log maps its segments and needs a unix with mmap")
}
