package bench

import (
	"strings"
	"testing"
	"time"

	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/geom"
)

// tinyConfig keeps the smoke tests fast: every experiment must run end to
// end and produce well-formed tables, even at toy scale.
func tinyConfig() Config {
	return Config{
		Scale:        4_000,
		Queries:      200,
		PointQueries: 300,
		LeafSize:     128,
		Seed:         1,
		Regions:      []dataset.Region{dataset.NewYork, dataset.Japan},
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	cfg := tinyConfig()
	for _, e := range Experiments() {
		tables := e.Run(cfg)
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", e.ID)
		}
		for _, tb := range tables {
			if tb.ID != e.ID {
				t.Errorf("%s: table carries id %s", e.ID, tb.ID)
			}
			if len(tb.Header) == 0 || len(tb.Rows) == 0 {
				t.Errorf("%s: empty table %q", e.ID, tb.Title)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Header) {
					t.Errorf("%s: ragged row %v vs header %v", e.ID, row, tb.Header)
				}
			}
			s := tb.String()
			if !strings.Contains(s, tb.Title) {
				t.Errorf("%s: rendering lacks the title", e.ID)
			}
		}
	}
}

// TestSuitesNameKnownExperiments: every id a suite names resolves to an
// experiment, and no suite names one twice.
func TestSuitesNameKnownExperiments(t *testing.T) {
	for _, s := range Suites() {
		seen := map[string]bool{}
		for _, id := range s.Experiments {
			if _, ok := ExperimentByID(id); !ok {
				t.Errorf("suite %s names unknown experiment %q", s.Name, id)
			}
			if seen[id] {
				t.Errorf("suite %s names %q twice", s.Name, id)
			}
			seen[id] = true
		}
	}
}

// TestFig12DriftsToAnotherRegion: with one region configured, the skewed
// drift panel targets a different region's hotspots, not the training
// region's own.
func TestFig12DriftsToAnotherRegion(t *testing.T) {
	cfg := Config{Scale: 2_000, Queries: 40, PointQueries: 10, LeafSize: 64, Regions: []dataset.Region{dataset.Japan}}
	title := Fig12WorkloadDrift(cfg)[1].Title
	if strings.Contains(title, dataset.Japan.String()) {
		t.Fatalf("drift target is the training region: %q", title)
	}
	named := false
	for _, r := range dataset.Regions() {
		named = named || strings.Contains(title, "change to "+r.String()+" ")
	}
	if !named {
		t.Fatalf("title names no region: %q", title)
	}
}

func TestBuildIndexAllNames(t *testing.T) {
	cfg := tinyConfig()
	w := MakeWorkloads(dataset.CaliNev, 3_000, cfg)
	qs := w.BySelectivity[MidSelectivity]
	names := append(append([]string{}, AllIndexes...), "Base+SK", "WaZI-SK")
	for _, name := range names {
		br := BuildIndex(name, w.Data, qs[:50], cfg)
		if br.Index.Len() != len(w.Data) {
			t.Errorf("%s: Len = %d, want %d", name, br.Index.Len(), len(w.Data))
		}
		if br.Build <= 0 {
			t.Errorf("%s: non-positive build time", name)
		}
		// Every index answers the same query identically; spot check count
		// against the first index built.
		if got := len(br.Index.RangeQuery(qs[60])); got != len(BuildIndex("Base", w.Data, qs[:50], cfg).Index.RangeQuery(qs[60])) {
			t.Errorf("%s: result size disagrees with Base on a shared query", name)
		}
	}
}

func TestBuildIndexUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown index name should panic")
		}
	}()
	BuildIndex("nope", []geom.Point{{X: 0, Y: 0}}, nil, tinyConfig())
}

func TestMeasureHelpers(t *testing.T) {
	cfg := tinyConfig()
	w := MakeWorkloads(dataset.Iberia, 2_000, cfg)
	qs := w.BySelectivity[MidSelectivity]
	br := BuildIndex("WaZI", w.Data, qs[:50], cfg)
	if d := MeasureRange(br.Index, qs[50:150]); d <= 0 {
		t.Error("MeasureRange returned non-positive duration")
	}
	if d := MeasurePoint(br.Index, w.Points[:100]); d <= 0 {
		t.Error("MeasurePoint returned non-positive duration")
	}
	ph := br.Index.(Phased)
	p, s := MeasurePhases(ph, qs[50:150])
	if p <= 0 || s < 0 {
		t.Errorf("MeasurePhases = (%v, %v)", p, s)
	}
	if MeasureRange(br.Index, nil) != 0 || MeasurePoint(br.Index, nil) != 0 {
		t.Error("empty workloads must measure zero")
	}
	if p, s := MeasurePhases(ph, nil); p != 0 || s != 0 {
		t.Error("empty phased workload must measure zero")
	}
}

func TestSizeLadder(t *testing.T) {
	cfg := Config{Scale: 80}
	cfg.fill()
	got := cfg.SizeLadder()
	want := []int{10, 20, 40, 80, 160}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SizeLadder = %v, want %v", got, want)
		}
	}
}

func TestFormatters(t *testing.T) {
	if ns(1500*time.Nanosecond) != "1500" {
		t.Errorf("ns formatting: %s", ns(1500*time.Nanosecond))
	}
	if mb(1<<20) != "1.00" {
		t.Errorf("mb formatting: %s", mb(1<<20))
	}
	if selLabel(0.0256e-2) != "0.0256%" {
		t.Errorf("selLabel formatting: %s", selLabel(0.0256e-2))
	}
	if humanCount(2_500_000) != "2.5M" || humanCount(42_000) != "42k" || humanCount(9) != "9" {
		t.Error("humanCount formatting broken")
	}
}
