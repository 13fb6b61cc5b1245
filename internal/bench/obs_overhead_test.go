package bench

import (
	"strconv"
	"strings"
	"testing"

	"github.com/wazi-index/wazi/internal/dataset"
)

// TestObsOverheadReportShape runs the obs-overhead experiment at smoke scale
// and checks the shape of its report: one table with a parseable, positive
// "p95 ratio" row. It does not gate the ratio: a quotient of two p95s over
// 440 ops moves more with the machine than with the instruments. The
// measured overhead is wazibench's obs.overhead_x (alternating loops; see
// docs/OBSERVABILITY.md).
func TestObsOverheadReportShape(t *testing.T) {
	cfg := Config{Scale: 20_000, Queries: 400, Regions: []dataset.Region{dataset.NewYork}}
	tables := ObsOverhead(cfg)
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	found := false
	for _, row := range tables[0].Rows {
		if strings.HasPrefix(row[0], "p95 ratio") {
			v, err := strconv.ParseFloat(row[2], 64)
			if err != nil || v <= 0 {
				t.Fatalf("p95 ratio %q is not a positive number (%v)", row[2], err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no p95 ratio row in %+v", tables[0].Rows)
	}
}
