package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fakeTables returns one deterministic table whose single numeric cell
// varies per call, plus decorated and non-numeric cells.
func fakeTables(call int) []Table {
	return []Table{
		{
			ID:     "fake",
			Title:  "Range latency (ns/query)",
			Header: []string{"Dataset", "WaZI", "Verdict", "Improvement"},
			Rows: [][]string{
				{"NewYork", fmt.Sprintf("%d", 100+call), "always", "+12.5%"},
				{"Japan", "200", "yes", "-3.0%"},
			},
		},
		{
			ID:     "fake",
			Title:  "Throughput",
			Header: []string{"Goroutines", "Sharded (q/s)", "Speedup"},
			Rows:   [][]string{{"4", "1000", "2.50x"}},
		},
	}
}

func TestRunWarmupAndReps(t *testing.T) {
	calls := 0
	run := NewRun(Options{Suite: "test", Warmup: 2, Reps: 3}, nil)
	res := run.Experiment("fake", func() []Table {
		calls++
		return fakeTables(calls)
	})
	if calls != 5 {
		t.Fatalf("experiment ran %d times, want 2 warmup + 3 reps = 5", calls)
	}
	if res.Warmup != 2 || res.Reps != 3 {
		t.Fatalf("result records warmup=%d reps=%d", res.Warmup, res.Reps)
	}
	if res.WallNS.N != 3 {
		t.Fatalf("wall time has %d samples, want 3", res.WallNS.N)
	}

	byName := map[string]Metric{}
	for _, m := range res.Metrics {
		byName[m.Name] = m
	}
	// The varying cell: calls 3, 4, 5 are the timed ones (after 2 warmups).
	wazi, ok := byName["fake/t0/newyork/wazi"]
	if !ok {
		t.Fatalf("missing metric; have %v", keys(byName))
	}
	if want := []float64{103, 104, 105}; !reflect.DeepEqual(wazi.Samples, want) {
		t.Fatalf("samples %v, want %v (warmup reps must be discarded)", wazi.Samples, want)
	}
	if wazi.Unit != "ns" || wazi.HigherIsBetter {
		t.Fatalf("latency metric misclassified: %+v", wazi)
	}

	// Decorated cells parse; non-numeric cells are skipped.
	imp := byName["fake/t0/newyork/improvement"]
	if len(imp.Samples) != 3 || imp.Samples[0] != 12.5 || !imp.HigherIsBetter {
		t.Fatalf("improvement metric: %+v", imp)
	}
	if _, ok := byName["fake/t0/newyork/verdict"]; ok {
		t.Fatal("non-numeric cell produced a metric")
	}
	qps := byName["fake/t1/4/sharded-q-s"]
	if qps.Unit != "q/s" || !qps.HigherIsBetter {
		t.Fatalf("throughput metric misclassified: %+v", qps)
	}
	speedup := byName["fake/t1/4/speedup"]
	if len(speedup.Samples) != 3 || speedup.Samples[0] != 2.5 || !speedup.HigherIsBetter {
		t.Fatalf("speedup metric: %+v", speedup)
	}
}

func keys(m map[string]Metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	run := NewRun(Options{Suite: "roundtrip", Reps: 2}, map[string]int{"scale": 1000},
		&JSONReporter{Path: path})
	call := 0
	run.Experiment("fake", func() []Table { call++; return fakeTables(call) })
	want, err := run.Finish()
	if err != nil {
		t.Fatal(err)
	}

	got := readReport(t, path)
	if got.Schema != SchemaVersion || got.Suite != "roundtrip" {
		t.Fatalf("header: %q %q", got.Schema, got.Suite)
	}
	if got.Env != want.Env {
		t.Fatalf("env round-trip: %+v vs %+v", got.Env, want.Env)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("results round-trip mismatch:\ngot  %+v\nwant %+v", got.Results, want.Results)
	}
	if got.ElapsedNS != want.ElapsedNS {
		t.Fatalf("elapsed: %d vs %d", got.ElapsedNS, want.ElapsedNS)
	}

	// The config survives as generic JSON.
	cfg, ok := got.Config.(map[string]any)
	if !ok || cfg["scale"] != float64(1000) {
		t.Fatalf("config round-trip: %#v", got.Config)
	}
}

// readReport decodes a report file written by WriteFile.
func readReport(t *testing.T, path string) *Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}

func TestJSONReporterWriter(t *testing.T) {
	var buf bytes.Buffer
	run := NewRun(Options{Suite: "w", Reps: 1}, nil, &JSONReporter{W: &buf})
	run.Experiment("fake", func() []Table { return fakeTables(1) })
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatalf("stream output is not valid JSON: %v", err)
	}
	if len(r.Results) != 1 || r.Results[0].Experiment != "fake" {
		t.Fatalf("stream report: %+v", r)
	}
}

func TestTextReporterOutput(t *testing.T) {
	var buf bytes.Buffer
	run := NewRun(Options{Suite: "text", Reps: 2}, nil, &TextReporter{W: &buf})
	call := 0
	run.Experiment("fake", func() []Table { call++; return fakeTables(call) })
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"suite text",
		"== fake: Range latency (ns/query) ==",
		"[fake: wall ",
		"2 reps",
		"suite text: 1 experiment(s) in",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output lacks %q:\n%s", want, out)
		}
	}

	var quiet bytes.Buffer
	qrun := NewRun(Options{Suite: "q", Reps: 1}, nil, &TextReporter{W: &quiet, Quiet: true})
	qrun.Experiment("fake", func() []Table { return fakeTables(1) })
	if _, err := qrun.Finish(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(quiet.String(), "== fake:") {
		t.Errorf("quiet output still contains tables:\n%s", quiet.String())
	}
}

func TestSlug(t *testing.T) {
	for in, want := range map[string]string{
		"Range latency (ns/query)": "range-latency-ns-query",
		"0.0016%":                  "0.0016%",
		"  CaliNev  ":              "calinev",
		"Sharded (q/s)":            "sharded-q-s",
		"% inserted":               "%-inserted",
	} {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}
}
