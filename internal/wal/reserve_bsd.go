//go:build darwin || dragonfly || freebsd || netbsd || openbsd

package wal

import "os"

// reserve writes the zeros: these unixes have no fallocate(2) in syscall.
func reserve(f *os.File, size int64) error { return writeZeros(f, size) }
