package workload

import (
	"fmt"
	"math"

	"github.com/wazi-index/wazi/internal/geom"
)

// This file defines the wire encoding of workload operations: the JSON
// shapes a scenario suite's operation stream takes when replayed over the
// network. The serving layer (internal/server) decodes exactly these shapes
// on its /v1/* endpoints, and the waziload generator encodes them, so the
// two ends can never drift apart.

// Wire op kinds. Range and Count carry a rectangle; Point, Insert, and
// Delete carry a point; KNN carries a point and k.
const (
	WireRange  = "range"
	WireCount  = "count"
	WirePoint  = "point"
	WireKNN    = "knn"
	WireInsert = "insert"
	WireDelete = "delete"
)

// MaxWireK is the largest k a kNN op may ask for. An answer of k points
// sorts at least k candidates, so an unbounded k lets one request sort the
// whole dataset; the bound is the capacity (1<<16 points) up to which the
// index's query arenas and the server's response buffers are recycled, so
// no accepted kNN outgrows a pooled buffer.
const MaxWireK = 1 << 16

// WireOp is one operation in wire form. Exactly the fields implied by Op
// are set; the rest are omitted from the JSON.
type WireOp struct {
	Op    string      `json:"op"`
	Rect  *geom.Rect  `json:"rect,omitempty"`
	Point *geom.Point `json:"point,omitempty"`
	K     int         `json:"k,omitempty"`
}

// ToWire converts a scenario operation stream into its wire form, ready to
// be marshalled into /v1/batch requests or replayed op by op.
func ToWire(ops []Op) []WireOp {
	out := make([]WireOp, len(ops))
	for i, op := range ops {
		if op.IsWrite {
			p := op.Point
			out[i] = WireOp{Op: WireInsert, Point: &p}
		} else {
			r := op.Query
			out[i] = WireOp{Op: WireRange, Rect: &r}
		}
	}
	return out
}

// Validate checks that the op names a known kind and carries exactly the
// operands that kind needs, with finite coordinates, a valid rectangle and a
// k within [1, MaxWireK].
// It returns nil for replayable ops and a client-actionable error otherwise.
func (w WireOp) Validate() error {
	switch w.Op {
	case WireRange, WireCount:
		if w.Rect == nil {
			return fmt.Errorf("op %q requires a rect", w.Op)
		}
		return validRect(*w.Rect)
	case WirePoint, WireInsert, WireDelete:
		if w.Point == nil {
			return fmt.Errorf("op %q requires a point", w.Op)
		}
		return validPoint(*w.Point)
	case WireKNN:
		if w.Point == nil {
			return fmt.Errorf("op %q requires a point", w.Op)
		}
		if err := validPoint(*w.Point); err != nil {
			return err
		}
		if w.K <= 0 || w.K > MaxWireK {
			return fmt.Errorf("op %q requires 1 <= k <= %d, got %d", w.Op, MaxWireK, w.K)
		}
		return nil
	case "":
		return fmt.Errorf("missing op kind")
	default:
		return fmt.Errorf("unknown op kind %q", w.Op)
	}
}

func validRect(r geom.Rect) error {
	for _, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("rect has non-finite coordinate")
		}
	}
	if !r.Valid() {
		return fmt.Errorf("rect min exceeds max: %+v", r)
	}
	return nil
}

func validPoint(p geom.Point) error {
	if !p.Finite() {
		return fmt.Errorf("point has non-finite coordinate")
	}
	return nil
}
