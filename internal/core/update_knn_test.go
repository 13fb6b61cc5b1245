package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/storage"
)

// reference is a brute-force multiset of points used as ground truth for
// update tests.
type reference struct {
	pts []geom.Point
}

func (r *reference) insert(p geom.Point) { r.pts = append(r.pts, p) }

func (r *reference) delete(p geom.Point) bool {
	for i, q := range r.pts {
		if q == p {
			r.pts[i] = r.pts[len(r.pts)-1]
			r.pts = r.pts[:len(r.pts)-1]
			return true
		}
	}
	return false
}

func TestInsertThenQuery(t *testing.T) {
	pts := clusteredPts(2000, 50)
	qs := skewedQueries(100, 51)
	z, err := BuildWaZI(pts, qs, Options{LeafSize: 64, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{pts: append([]geom.Point(nil), pts...)}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 1500; i++ {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		z.Insert(p)
		ref.insert(p)
	}
	if z.Len() != len(ref.pts) {
		t.Fatalf("Len = %d, want %d", z.Len(), len(ref.pts))
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r := randomQueryRect(rng)
		samePointSets(t, z.RangeQuery(r), bruteRange(ref.pts, r), "after inserts")
	}
	if z.Stats().PageSplits == 0 {
		t.Error("expected page splits during 1500 inserts into 64-point leaves")
	}
}

// TestCopyToIsIndependent: a copy holds the original's leaves, pages and
// runs one for one, passes the invariants with tails on its pages, and
// takes inserts, splits, deletes and merges that never reach the original.
func TestCopyToIsIndependent(t *testing.T) {
	pts := clusteredPts(2000, 60)
	z, err := BuildWaZI(pts, skewedQueries(100, 61), Options{LeafSize: 64, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	for range 300 { // tails on the original's pages
		z.Insert(geom.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	want := z.Points()
	c := z.CopyTo(storage.NewMemStore())
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for l, m, i := z.head, c.head, 0; l != nil || m != nil; l, m, i = l.next, m.next, i+1 {
		if l == nil || m == nil || l.Bounds() != m.Bounds() || l.Len() != m.Len() || l.sorted != m.sorted {
			t.Fatalf("the copy's leaf list differs from the original's at leaf %d", i)
		}
	}
	if got := c.Points(); !slices.Equal(got, want) || c.Stats().Inserts != 0 {
		t.Fatalf("the copy holds %d points in another order, or kept the original's stats", len(got))
	}
	ref := &reference{pts: slices.Clone(want)}
	for _, p := range want[:1000] { // the first leaves empty and merge
		if !c.Delete(p) || !ref.delete(p) {
			t.Fatalf("the copy lost %v", p)
		}
	}
	for i := range 500 { // the last ones overflow and split
		p := want[len(want)-1-i%50]
		c.Insert(geom.Point{X: p.X, Y: p.Y + 1e-9*float64(i)})
		ref.insert(geom.Point{X: p.X, Y: p.Y + 1e-9*float64(i)})
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.PageSplits == 0 || st.PageMerges == 0 {
		t.Fatalf("the updates made %d splits and %d merges, want both", st.PageSplits, st.PageMerges)
	}
	samePointSets(t, c.RangeQuery(c.Bounds()), ref.pts, "copy after updates")
	if err := z.CheckInvariants(); err != nil || !slices.Equal(z.Points(), want) {
		t.Fatalf("updates to the copy reached the original (%v)", err)
	}
}

func TestInsertIntoEmptyQuadrant(t *testing.T) {
	// Build over points confined to the left half so the right quadrants of
	// many cells are empty, then insert into the empty space.
	rng := rand.New(rand.NewSource(54))
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 0.5, Y: rng.Float64()}
	}
	z, err := BuildBase(pts, Options{LeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{pts: append([]geom.Point(nil), pts...)}
	// Inserting points beyond the original data bounds exercises the
	// bounds-growth path as well.
	for i := 0; i < 500; i++ {
		p := geom.Point{X: 0.5 + rng.Float64()*0.5, Y: rng.Float64()}
		z.Insert(p)
		ref.insert(p)
	}
	// Far outside the built domain (negative X, Y above 1): the cells along
	// each descent must grow to cover the point before the insert lands.
	for i := 0; i < 200; i++ {
		p := geom.Point{X: -1 - rng.Float64(), Y: rng.Float64()}
		switch i % 3 {
		case 1:
			p = geom.Point{X: rng.Float64(), Y: 1 + rng.Float64()}
		case 2:
			p = geom.Point{X: -rng.Float64(), Y: 1 + rng.Float64()}
		}
		z.Insert(p)
		ref.insert(p)
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		r := randomQueryRect(rng)
		samePointSets(t, z.RangeQuery(r), bruteRange(ref.pts, r), "after empty-quadrant inserts")
	}
	for _, r := range []geom.Rect{
		{MinX: -3, MinY: -3, MaxX: 3, MaxY: 3},
		{MinX: -2, MinY: 0, MaxX: -0.5, MaxY: 1},
		{MinX: -1, MinY: 1, MaxX: 1, MaxY: 2},
		{MinX: -0.5, MinY: 0.5, MaxX: 0.5, MaxY: 1.5},
	} {
		samePointSets(t, z.RangeQuery(r), bruteRange(ref.pts, r), "after far-outside inserts")
	}
}

// TestInsertDeleteAllocFree pins the steady-state update path on the RAM
// backend: an insert that neither splits nor grows bounds, and the delete
// that undoes it without merging, allocate nothing.
func TestInsertDeleteAllocFree(t *testing.T) {
	z, err := BuildBase(uniformPts(4000, 58), Options{LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{X: 0.4321, Y: 0.5678}
	z.Insert(p) // grow the page's capacity once, outside the measurement
	if !z.Delete(p) {
		t.Fatal("Delete of the inserted point failed")
	}
	splits, merges := z.Stats().PageSplits, z.Stats().PageMerges
	allocs := testing.AllocsPerRun(100, func() {
		z.Insert(p)
		if !z.Delete(p) {
			t.Fatal("Delete of the inserted point failed")
		}
	})
	if s := z.Stats(); s.PageSplits != splits || s.PageMerges != merges {
		t.Fatalf("measured pair changed structure: splits %d→%d, merges %d→%d", splits, s.PageSplits, merges, s.PageMerges)
	}
	if allocs != 0 {
		t.Fatalf("Insert+Delete allocates %.1f times per pair, want 0", allocs)
	}
}

func TestDelete(t *testing.T) {
	pts := clusteredPts(3000, 55)
	z, err := BuildBase(pts, Options{LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{pts: append([]geom.Point(nil), pts...)}
	rng := rand.New(rand.NewSource(56))
	deleted := 0
	for i := 0; i < 1500; i++ {
		p := ref.pts[rng.Intn(len(ref.pts))]
		gz := z.Delete(p)
		gr := ref.delete(p)
		if gz != gr {
			t.Fatalf("Delete(%v) = %v, reference = %v", p, gz, gr)
		}
		if gz {
			deleted++
		}
	}
	if z.Len() != len(ref.pts) {
		t.Fatalf("Len = %d, want %d (deleted %d)", z.Len(), len(ref.pts), deleted)
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		r := randomQueryRect(rng)
		samePointSets(t, z.RangeQuery(r), bruteRange(ref.pts, r), "after deletes")
	}
	if z.Delete(geom.Point{X: 99, Y: 99}) {
		t.Error("deleting an out-of-bounds point must fail")
	}
	if z.Delete(geom.Point{X: 0.123456789, Y: 0.987654321}) {
		t.Error("deleting an absent point must fail")
	}
}

func TestDeleteTriggersMerge(t *testing.T) {
	pts := uniformPts(4000, 57)
	z, err := BuildBase(pts, Options{LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Delete everything in one quadrant region; sibling groups there should
	// eventually merge.
	for _, p := range pts {
		if p.X < 0.5 && p.Y < 0.5 {
			z.Delete(p)
		}
	}
	if z.Stats().PageMerges == 0 {
		t.Error("expected at least one page merge after mass deletion")
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMixedUpdateWorkloadProperty(t *testing.T) {
	// Randomized interleaving of inserts, deletes, and queries with
	// invariant checks — a light-weight model-based test.
	pts := uniformPts(1000, 58)
	z, err := BuildWaZI(pts, skewedQueries(50, 59), Options{LeafSize: 32, Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{pts: append([]geom.Point(nil), pts...)}
	rng := rand.New(rand.NewSource(61))
	for step := 0; step < 3000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // insert
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			z.Insert(p)
			ref.insert(p)
		case 4, 5, 6: // delete existing
			if len(ref.pts) > 0 {
				p := ref.pts[rng.Intn(len(ref.pts))]
				if z.Delete(p) != ref.delete(p) {
					t.Fatalf("step %d: delete disagreement", step)
				}
			}
		case 7: // delete absent
			p := geom.Point{X: rng.Float64() + 2, Y: rng.Float64()}
			if z.Delete(p) {
				t.Fatalf("step %d: deleted absent point", step)
			}
		default: // range query
			r := randomQueryRect(rng)
			samePointSets(t, z.RangeQuery(r), bruteRange(ref.pts, r), "mixed workload")
		}
		if step%500 == 499 {
			if err := z.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if z.Len() != len(ref.pts) {
				t.Fatalf("step %d: Len = %d, want %d", step, z.Len(), len(ref.pts))
			}
		}
	}
}

func TestPointsAccessor(t *testing.T) {
	pts := uniformPts(700, 62)
	z, _ := BuildBase(pts, Options{LeafSize: 64})
	got := z.Points()
	samePointSets(t, got, pts, "Points()")
	// Mutating the returned slice must not corrupt the index.
	for i := range got {
		got[i] = geom.Point{X: -1, Y: -1}
	}
	if n := z.RangeCount(z.Bounds()); n != 700 {
		t.Fatalf("index corrupted by mutating Points() result: count %d", n)
	}
}

// ---------- kNN ----------

func bruteKNN(pts []geom.Point, q geom.Point, k int) []geom.Point {
	out := append([]geom.Point(nil), pts...)
	geom.SortByDistance(out, q)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestKNNMatchesBruteForce(t *testing.T) {
	pts := clusteredPts(4000, 63)
	z, err := BuildWaZI(pts, skewedQueries(100, 64), Options{LeafSize: 64, Seed: 65})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 60; trial++ {
		q := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		k := 1 + rng.Intn(20)
		got := z.KNN(q, k)
		want := bruteKNN(pts, q, k)
		if len(got) != k {
			t.Fatalf("KNN returned %d, want %d", len(got), k)
		}
		// Distances must agree (ties may reorder equal-distance points).
		for i := range got {
			dg, dw := dist(got[i], q), dist(want[i], q)
			if dg != dw {
				t.Fatalf("trial %d: kNN distance %d: got %v, want %v", trial, i, dg, dw)
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	pts := uniformPts(50, 67)
	z, _ := BuildBase(pts, Options{LeafSize: 8})
	if got := z.KNN(geom.Point{X: 0.5, Y: 0.5}, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := z.KNN(geom.Point{X: 0.5, Y: 0.5}, 100); len(got) != 50 {
		t.Errorf("k>n should return all %d points, got %d", 50, len(got))
	}
	// Query far outside the domain still works.
	if got := z.KNN(geom.Point{X: 50, Y: 50}, 3); len(got) != 3 {
		t.Errorf("far query returned %d", len(got))
	}
}
