package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/workload"
)

// layoutHash digests everything a build decides: the tree in ordering
// position order (cell, split and ordering of every internal node; cell and
// page contents of every leaf). A page is hashed as a copy in bit order, so
// the hash covers which points each page holds and not the order it keeps
// them in.
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
			pts := slices.Clone(v.Pts)
			v.Release()
			slices.SortFunc(pts, func(a, b geom.Point) int {
				return cmp.Or(cmp.Compare(math.Float64bits(a.X), math.Float64bits(b.X)),
					cmp.Compare(math.Float64bits(a.Y), math.Float64bits(b.Y)))
			})
			for _, p := range pts {
				hashFloats(h, p.X, p.Y)
			}
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
// benchmark's fixture (workload.BenchFixture). The layout the two constants
// pin is the one of the commit before the forest was rebuilt by selection
// (b6c08c7); they were recaptured, with no change to the build, when pages
// began to be hashed in bit order. A change to the build that is meant to be
// a pure speed-up must leave them alone; one that means to change the layout
// updates them and says so.
func TestLayoutIdentity(t *testing.T) {
	const (
		wantForest = "d5c0a8438449ffeced3b0f3a2a1017267ce155de8e7476a74c0d875846195bdd"
		wantExact  = "f8fa406b6cbd6554f9ac6866443f5b5165bb8a926a59fbdbd8b81a187e5c51d9"
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
