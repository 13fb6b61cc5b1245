package harness

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentEmitsResourceMetrics pins the tentpole contract: every
// timed repetition contributes a MemStats delta, and each experiment's
// result carries the four resource-class metrics alongside its table-mined
// latency metrics.
func TestExperimentEmitsResourceMetrics(t *testing.T) {
	run := NewRun(Options{Suite: "res", Warmup: 1, Reps: 3}, nil)
	const allocsPerRep = 1000
	sink := make([][]byte, 0, allocsPerRep)
	res := run.Experiment("fake", func() []Table {
		sink = sink[:0]
		for i := 0; i < allocsPerRep; i++ {
			sink = append(sink, make([]byte, 1024))
		}
		return fakeTables(1)
	})

	for _, suffix := range []string{"allocs-op", "alloc-bytes-op", "gc-cycles-op", "gc-pause-ns-op"} {
		m := res.ResourceMetric(suffix)
		if m == nil {
			t.Fatalf("missing resource metric %q", suffix)
		}
		if m.Class != ClassResource {
			t.Errorf("%s class = %q, want %q", suffix, m.Class, ClassResource)
		}
		if m.HigherIsBetter {
			t.Errorf("%s marked higher-is-better; resources are lower-is-better", suffix)
		}
		if len(m.Samples) != 3 {
			t.Errorf("%s has %d samples, want one per timed rep (3)", suffix, len(m.Samples))
		}
	}
	if got := res.ResourceMetric("allocs-op").Summary.Mean; got < allocsPerRep {
		t.Errorf("allocs-op mean = %.0f, want >= the %d explicit allocations per rep", got, allocsPerRep)
	}
	if got := res.ResourceMetric("alloc-bytes-op").Summary.Mean; got < allocsPerRep*1024 {
		t.Errorf("alloc-bytes-op mean = %.0f, want >= %d explicitly allocated bytes", got, allocsPerRep*1024)
	}
	// Table-mined metrics carry no class.
	for _, m := range res.Metrics {
		if strings.Contains(m.Name, "/t0/") && m.Class != "" {
			t.Errorf("table metric %s has class %q, want empty (latency)", m.Name, m.Class)
		}
	}
}

// TestResourceMetricsRoundTrip writes a resource-bearing report through the
// JSON reporter and reads it back: the class tag and samples survive.
func TestResourceMetricsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_res.json")
	run := NewRun(Options{Suite: "res", Reps: 2}, nil, &JSONReporter{Path: path})
	run.Experiment("fake", func() []Table { return fakeTables(1) })
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}

	m := readReport(t, path).Results[0].ResourceMetric("allocs-op")
	if m == nil {
		t.Fatal("allocs-op did not survive the JSON round trip")
	}
	if m.Class != ClassResource || len(m.Samples) != 2 {
		t.Fatalf("round-tripped metric: class %q, %d samples", m.Class, len(m.Samples))
	}
}
