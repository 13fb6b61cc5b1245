package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"github.com/wazi-index/wazi/internal/workload"
)

// layoutHash digests everything a build decides: the tree in ordering
// position order (cell, split and ordering of every internal node; cell and
// page contents, in page order, of every leaf).
func layoutHash(z *ZIndex) string {
	h := sha256.New()
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			h.Write([]byte{0})
			return
		}
		hashFloats(h, n.cell.MinX, n.cell.MinY, n.cell.MaxX, n.cell.MaxY)
		if n.leaf != nil {
			h.Write([]byte{'L'})
			hashFloats(h, n.leaf.bounds.MinX, n.leaf.bounds.MinY, n.leaf.bounds.MaxX, n.leaf.bounds.MaxY)
			v := z.store.View(n.leaf.pid)
			for _, p := range v.Pts {
				hashFloats(h, p.X, p.Y)
			}
			v.Release()
			return
		}
		h.Write([]byte{'N', byte(n.order)})
		hashFloats(h, n.split.X, n.split.Y)
		for pos := 0; pos < 4; pos++ {
			walk(n.child[pos])
		}
	}
	walk(z.root)
	return hex.EncodeToString(h.Sum(nil))
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// TestLayoutIdentity pins what BuildWaZI builds at default options over the
// benchmark's fixture (workload.BenchFixture): the two constants were
// captured at the commit before the forest was rebuilt by selection
// (b6c08c7). A change to the build that is meant to be a pure speed-up must
// leave them alone; one that means to change the layout updates them and
// says so.
func TestLayoutIdentity(t *testing.T) {
	const (
		wantForest = "a60f448d05b0f28d43ae1a23a6ab1f12940860ba4f305a74944a302f3c8996bb"
		wantExact  = "53eb21310d7c2773229cf3948bca292f10497f9859e33c07aaba3bde4d87e797"
	)
	pts, train := workload.BenchFixture()
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"forest", Options{}, wantForest},
		{"exact", Options{ExactCounts: true}, wantExact},
	} {
		z, err := BuildWaZI(pts, train, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := layoutHash(z); got != tc.want {
			t.Errorf("%s: layout hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
