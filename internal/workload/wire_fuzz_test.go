package workload

import (
	"encoding/json"
	"testing"

	"github.com/wazi-index/wazi/internal/geom"
)

// FuzzWireDecode fuzzes the wire-op decode+validate path the serving layer
// runs on every request body: arbitrary JSON must yield a clean error or a
// validated op, never a panic, and validation must never accept an op
// without its operands.
func FuzzWireDecode(f *testing.F) {
	seed := func(op WireOp) {
		b, err := json.Marshal(op)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(WireOp{Op: WireRange, Rect: &geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.4, MaxY: 0.3}})
	seed(WireOp{Op: WireCount, Rect: &geom.Rect{MaxX: 1, MaxY: 1}})
	seed(WireOp{Op: WirePoint, Point: &geom.Point{X: 0.5, Y: 0.5}})
	seed(WireOp{Op: WireKNN, Point: &geom.Point{X: 0.5, Y: 0.5}, K: 8})
	seed(WireOp{Op: WireInsert, Point: &geom.Point{X: 0.2, Y: 0.9}})
	seed(WireOp{Op: WireDelete, Point: &geom.Point{X: 0.2, Y: 0.9}})
	f.Add([]byte(`{"op":"range"}`))
	f.Add([]byte(`{"op":"knn","point":{"x":0,"y":0},"k":-1}`))
	seed(WireOp{Op: WireKNN, Point: &geom.Point{X: 0.5, Y: 0.5}, K: MaxWireK})
	seed(WireOp{Op: WireKNN, Point: &geom.Point{X: 0.5, Y: 0.5}, K: MaxWireK + 1})
	f.Add([]byte(`{"op":"range","rect":{"min_x":1e999}}`))
	f.Add([]byte(`[{"op":"insert","point":{"x":1,"y":2}}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var op WireOp
		if err := json.Unmarshal(data, &op); err == nil {
			if op.Validate() == nil {
				// A validated op carries exactly the operands its kind
				// needs; the server dereferences them without checks.
				switch op.Op {
				case WireRange, WireCount:
					if op.Rect == nil {
						t.Fatalf("validated %q without a rect", op.Op)
					}
				case WirePoint, WireInsert, WireDelete, WireKNN:
					if op.Point == nil {
						t.Fatalf("validated %q without a point", op.Op)
					}
					if op.Op == WireKNN && (op.K < 1 || op.K > MaxWireK) {
						t.Fatalf("validated a kNN with k = %d", op.K)
					}
				}
			}
		}
		var batch []WireOp
		if err := json.Unmarshal(data, &batch); err == nil {
			for _, op := range batch {
				op.Validate()
			}
		}
	})
}
