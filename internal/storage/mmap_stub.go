//go:build !((linux || darwin || freebsd || netbsd || openbsd) && (amd64 || arm64 || riscv64 || loong64 || ppc64le || mips64le || 386 || amd64p32 || arm || wasm))

package storage

import (
	"errors"
	"os"
)

// This platform has no usable mmap, or is big-endian, where reinterpreting
// little-endian file bytes in place would mis-decode: CreatePageFile and
// OpenPageFile fail here. The RAM-resident MemStore works everywhere.

func mapFile(*os.File, int64) (*fileMap, error) {
	return nil, errors.New("disk page files need a little-endian unix with mmap")
}

func (m *fileMap) unmap() {}
