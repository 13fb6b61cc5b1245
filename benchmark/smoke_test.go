package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeSpec shrinks a workload so that a traced run takes about a second:
// 20 000 points, one pass, one set-up. The shard cache shrinks with it so
// that the tight workload still evicts.
func smokeSpec(w spec) spec {
	w.sz = sizes{n: 20_000, train: 400, ranges: 400, lookups: 512, knn: 24, writes: 4_608}
	if !w.sharded {
		w.sz.writes = 1_024
	}
	if w.http {
		w.sz.writes = 256
	}
	if w.cachePages == 64 {
		w.cachePages = 8
	}
	w.readPasses = 1
	w.writesPerRead = min(w.writesPerRead, 1)
	if w.rebuildPasses > 0 {
		w.rebuildPasses = 1
	}
	return w
}

func smokeRun(t *testing.T, w spec, seed int64) (*report, string) {
	t.Helper()
	out := t.TempDir()
	rep, err := run(config{w: smokeSpec(w), seed: seed, seconds: runSeconds, trace: true,
		outDir: out, setupReps: 1, probePasses: 1, probeCalls: 1 << 13, log: io.Discard})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if rep.failed != 0 || rep.attempted < 1 {
		t.Fatalf("%s: %d of %d ops failed", w.name, rep.failed, rep.attempted)
	}
	return rep, out
}

type declared struct {
	Name, Unit string
}

// TestSmoke runs every workload once, traced, and holds the output to
// BENCHMARK.json: every declared metric exactly once with its unit, nothing
// undeclared, and a trace file that parses.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	check := func(w string, got []metric, want []declared) {
		t.Helper()
		seen := map[string]string{}
		for _, m := range got {
			if _, dup := seen[m.name]; dup {
				t.Errorf("%s: metric %s emitted twice", w, m.name)
			}
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s: metric name %q", w, m.name)
			}
			seen[m.name] = m.unit
		}
		for _, d := range want {
			if unit, ok := seen[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s: metric %s: emitted %v with unit %q, declared unit %q", w, d.Name, ok, unit, d.Unit)
			}
			delete(seen, d.Name)
		}
		for name := range seen {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", w, name)
		}
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the benchmark", i, decl.Workloads[i].Name, w.name)
		}
		rep, out := smokeRun(t, w, 1)
		check(w.name, rep.endToEnd, decl.EndToEnd)
		check(w.name, rep.perLayer, decl.PerLayer)
		data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf map[string]json.RawMessage
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		for _, key := range []string{"residual_share", "overhead_x", "spans"} {
			if _, ok := tf[key]; !ok {
				t.Errorf("%s: trace file has no %q", w.name, key)
			}
		}
	}
}

// TestSameSeedSameCounts: counts, space and ops attempted must repeat exactly
// for a seed (the workload with the tight cache and rebuilding writes has the
// most state to drift), and another seed must give other op streams over the
// same fixture.
func TestSameSeedSameCounts(t *testing.T) {
	w, _ := workloadByName("sharded-disktight")
	a, _ := smokeRun(t, w, 1)
	b, _ := smokeRun(t, w, 1)
	if a.attempted != b.attempted {
		t.Errorf("ops attempted: %d then %d", a.attempted, b.attempted)
	}
	exact := regexp.MustCompile(`^(space_bytes_per_point|core\..*_per_range|core\.useful_point_share|storage\.(cache_hit_share|evictions_per_range|disk_bytes_per_point.*)|wal\.bytes_per_write|wazi\.rebuilds_per_1k_writes)$`)
	values := func(r *report) map[string]float64 {
		m := map[string]float64{}
		for _, x := range append(append([]metric(nil), r.endToEnd...), r.perLayer...) {
			if exact.MatchString(x.name) {
				m[x.name] = x.value
			}
		}
		return m
	}
	va, vb := values(a), values(b)
	if len(va) < 10 {
		t.Fatalf("only %d exact metrics matched", len(va))
	}
	for name, v := range va {
		if vb[name] != v {
			t.Errorf("%s: %v then %v for the same seed", name, v, vb[name])
		}
	}
	if va["wazi.rebuilds_per_1k_writes"] == 0 || va["storage.evictions_per_range"] == 0 {
		t.Errorf("smoke sizes exercise no rebuild or no eviction: %v", va)
	}
	// The seed draws the streams, not the fixture they run over.
	x, y := makeInputs(smokeSpec(w).sz, true, false, 1), makeInputs(smokeSpec(w).sz, true, false, 2)
	if x.ranges[0] == y.ranges[0] || x.lookups[0] == y.lookups[0] || x.writes[0] == y.writes[0] {
		t.Error("seeds 1 and 2 share op streams")
	}
	if x.points[0] != y.points[0] || x.train[0] != y.train[0] {
		t.Error("seeds 1 and 2 index different fixtures")
	}
}
