package bench

import (
	"strconv"
	"strings"
	"testing"

	"github.com/wazi-index/wazi/internal/dataset"
)

// TestRepartitionGain pins the acceptance bar of the online repartitioner:
// under the hotspot-shift suite at smoke scale, the advisor-gated migration
// must actually happen, it must cut the cross-shard page-work imbalance of
// the post-shift tail by at least 1.3x versus the static plan, and it must
// dedicate more shards to the shifted hotspot. All three are counter
// arithmetic over deterministic builds and replays, so the test reads no
// clock; the experiment's latency table still reports p95.
func TestRepartitionGain(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale assertion skipped in -short mode")
	}
	cfg := Config{Scale: 20_000, Queries: 400, Regions: []dataset.Region{dataset.NewYork}}
	tables := RepartitionExperiment(cfg)
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	row := tables[1].Rows[0]
	if row[5] != "true" {
		t.Fatalf("advisor-gated migration did not happen (migrated=%q)", row[5])
	}
	imb, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
	if err != nil {
		t.Fatalf("unparsable imbalance ratio %q", row[3])
	}
	if imb < 1.3 {
		t.Fatalf("page-work imbalance ratio %.2f < 1.3 — the migrated plan did not rebalance the shifted hotspot", imb)
	}

	lat := tables[0]
	if len(lat.Rows) != 2 || lat.Rows[0][0] != "static" || lat.Rows[1][0] != "adaptive" {
		t.Fatalf("unexpected latency table rows: %v", lat.Rows)
	}
	if lat.Rows[1][6] == "0" {
		t.Fatal("adaptive row reports zero migrations")
	}
	staticHot, err1 := strconv.Atoi(lat.Rows[0][7])
	adaptiveHot, err2 := strconv.Atoi(lat.Rows[1][7])
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable hot-shard counts: %v / %v", lat.Rows[0][7], lat.Rows[1][7])
	}
	if adaptiveHot <= staticHot {
		t.Errorf("migration dedicated no extra shards to the shifted hotspot: static %d, adaptive %d", staticHot, adaptiveHot)
	}
}
