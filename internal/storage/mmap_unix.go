//go:build (linux || darwin || freebsd || netbsd || openbsd) && (amd64 || arm64 || riscv64 || loong64 || ppc64le || mips64le || 386 || amd64p32 || arm || wasm)

package storage

import (
	"os"
	"syscall"
)

// The build tags restrict page files to unix-likes with working
// syscall.Mmap AND little-endian architectures: the page-file format is
// little-endian, and every read reinterprets file bytes as []geom.Point in
// place, which is only a correct decode where the in-memory byte order
// matches the on-file one. Elsewhere mmap_stub.go refuses to open them.

// minMapBytes is the smallest mapping ever created. Mapping generously past
// the current end of file is deliberate: extending the file inside an
// existing mapping needs no remap, and pages past EOF are merely unusable
// (never touched — slot offsets are bounded by the file size), not unsafe.
const minMapBytes = 4 << 20

// mapFile maps at least want bytes of f read-only and shared. Shared
// mappings on a unified-page-cache kernel are coherent with WriteAt on the
// same file, which is what keeps cached mmap-backed pages truthful across
// in-place slot writes.
func mapFile(f *os.File, want int64) (*fileMap, error) {
	n := want
	if n < minMapBytes {
		n = minMapBytes
	}
	// Round up to a page multiple; mmap lengths need not be, but keeping
	// them aligned makes the doubling arithmetic in remap exact.
	pg := int64(os.Getpagesize())
	n = (n + pg - 1) / pg * pg
	data, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	return &fileMap{data: data}, nil
}

// unmap releases the mapping. The caller must guarantee no borrowed view or
// cached page can still alias it.
func (m *fileMap) unmap() {
	if m.data != nil {
		syscall.Munmap(m.data)
		m.data = nil
	}
}
