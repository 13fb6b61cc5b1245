package storage

import (
	"unsafe"

	"github.com/wazi-index/wazi/internal/geom"
)

// fileMap is one read-only shared mapping of a page file. Mappings are
// created by mapFile, grown by mapping the file AGAIN at a larger size
// (never by moving the old one: borrowed views and cached pages alias old
// mappings, which therefore stay valid until the store's final teardown),
// and released by unmap only when no pinned view can reference them.
type fileMap struct {
	data []byte
}

// covers reports whether the byte range [off, off+n) lies inside the
// mapping.
func (m *fileMap) covers(off, n int64) bool {
	return off >= 0 && n >= 0 && off+n <= int64(len(m.data))
}

// pointsAt reinterprets count points starting at byte offset off as a
// []geom.Point without copying. The slot layout guarantees 8-byte alignment
// (the header is 64 bytes, slots are 48+16·cap bytes), which unsafe.Slice
// requires for float64 loads; an assertion guards the arithmetic anyway.
func (m *fileMap) pointsAt(off int64, count int) []geom.Point {
	if count == 0 {
		return nil
	}
	if off%8 != 0 {
		panic("storage: misaligned point slab in page-file mapping")
	}
	return unsafe.Slice((*geom.Point)(unsafe.Pointer(&m.data[off])), count)
}
