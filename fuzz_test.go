package wazi

import (
	"bytes"
	"math/rand"
	"testing"
)

// Fuzz targets over the persistence decoders: arbitrary input must produce
// a clean error or a usable index — never a panic. Seed corpora come from
// real Save output so the fuzzer starts inside the format and mutates
// outward.

func fuzzPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func FuzzLoad(f *testing.F) {
	pts := fuzzPoints(600, 1)
	idx, err := New(pts, WithLeafSize(32), WithSeed(2))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A truncation and a bit flip, so the corpus starts near the failure
	// modes that matter.
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	flipped := append([]byte(nil), buf.Bytes()...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A snapshot the decoder accepted must be queryable without
		// panicking.
		got.RangeQuery(Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8})
		got.PointQuery(Point{X: 0.5, Y: 0.5})
		_ = got.Len()
	})
}

func FuzzLoadSharded(f *testing.F) {
	pts := fuzzPoints(800, 3)
	qs := make([]Rect, 40)
	rng := rand.New(rand.NewSource(4))
	for i := range qs {
		cx, cy := rng.Float64(), rng.Float64()
		qs[i] = Rect{MinX: cx - 0.05, MinY: cy - 0.05, MaxX: cx + 0.05, MaxY: cy + 0.05}
	}
	s, err := NewSharded(pts, qs, WithShards(3), WithoutAutoRebuild(),
		WithIndexOptions(WithLeafSize(32), WithSeed(5)))
	if err != nil {
		f.Fatal(err)
	}
	// Leave some uncompacted write-buffer and tombstone state so those
	// record fields are in the corpus.
	for i := 0; i < 50; i++ {
		s.Insert(Point{X: rng.Float64(), Y: rng.Float64()})
		s.Delete(pts[i])
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		f.Fatal(err)
	}
	s.Close()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	flipped := append([]byte(nil), buf.Bytes()...)
	flipped[len(flipped)/4] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadSharded(bytes.NewReader(data), WithoutAutoRebuild())
		if err != nil {
			return
		}
		got.RangeQuery(Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.8, MaxY: 0.8})
		_ = got.Len()
		got.Close()
	})
}

// FuzzLoadShardedMigration targets the snapshots a plan migration leaves:
// the epoch-carrying header of a repartitioned index and the shard records
// a Save writes while a migration is in flight, with writes buffered since
// its capture. Seeds are REAL snapshots — one saved between a migration's
// capture and its swap, one after the swap — so the fuzzer starts inside
// the format and mutates outward. Arbitrary input must produce a clean
// error or a usable index, never a panic.
func FuzzLoadShardedMigration(f *testing.F) {
	pts := fuzzPoints(700, 7)
	rng := rand.New(rand.NewSource(8))
	head := make([]Rect, 40)
	for i := range head {
		cx, cy := 0.2+rng.Float64()*0.1, 0.2+rng.Float64()*0.1
		head[i] = Rect{MinX: cx - 0.04, MinY: cy - 0.04, MaxX: cx + 0.04, MaxY: cy + 0.04}
	}
	s, err := NewSharded(pts, head, WithShards(4), WithoutAutoRebuild(),
		WithIndexOptions(WithLeafSize(32), WithSeed(9)))
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	// Drive a shifted hotspot and migrate once, so the snapshot carries a
	// nonzero epoch; then start a second migration back to the head
	// workload and save before it swaps.
	for range 1500 {
		cx, cy := 0.8+rng.Float64()*0.1, 0.8+rng.Float64()*0.1
		s.RangeQuery(Rect{MinX: cx - 0.04, MinY: cy - 0.04, MaxX: cx + 0.04, MaxY: cy + 0.04})
	}
	if !s.Repartition() {
		f.Fatal("seed setup: repartition declined")
	}
	for range 30 {
		s.Insert(Point{X: rng.Float64(), Y: rng.Float64()})
	}
	finish := s.BeginMigration(f, head)
	// A couple of writes since the capture, as a real migration would see.
	s.Insert(Point{X: 0.5, Y: 0.5})
	s.Delete(pts[0])
	var mid bytes.Buffer
	if err := s.Save(&mid); err != nil {
		f.Fatal(err)
	}
	if !finish() {
		f.Fatal("seed setup: the second migration did not swap")
	}

	f.Add(mid.Bytes())
	f.Add(mid.Bytes()[:len(mid.Bytes())/2])
	f.Add(mid.Bytes()[:40]) // header survives, first shard record truncated
	flipped := append([]byte(nil), mid.Bytes()...)
	flipped[len(flipped)/5] ^= 0x20
	f.Add(flipped)
	// The idle snapshot after the swap too, so both epochs are in corpus.
	var idle bytes.Buffer
	if err := s.Save(&idle); err != nil {
		f.Fatal(err)
	}
	f.Add(idle.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadSharded(bytes.NewReader(data), WithoutAutoRebuild())
		if err != nil {
			return
		}
		// An accepted snapshot must be fully usable: queryable, writable,
		// migratable, and re-saveable without panicking.
		got.RangeQuery(Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.9, MaxY: 0.9})
		got.PointQuery(Point{X: 0.5, Y: 0.5})
		_ = got.Len()
		_ = got.PlanEpoch()
		_ = got.Migrating()
		got.Insert(Point{X: 0.25, Y: 0.75})
		got.CheckRepartition()
		var out bytes.Buffer
		_ = got.Save(&out)
		got.Close()
	})
}
