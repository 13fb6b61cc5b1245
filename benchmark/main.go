// Command benchmark is the repository's benchmark (see README.md in this
// directory and BENCHMARK.json at the repository root). It drives the public
// entry points of each module from outside — wazi.Index, wazi.Sharded and
// internal/server over a loopback socket — on four workloads, verifies the
// answers against brute force, and prints every metric by name and unit.
//
//	go run ./benchmark -workload index-ram -seed 1 -seconds 12 -trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with -trace 0, the
// per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "one of: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Int("seconds", runSeconds, "run length; scales the number of fixed-size passes")
	trace := flag.Int("trace", 0, "1 adds the layer probes and the traced pass, and reports the per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Scratch files (page files, WAL segments) and the trace file live next
	// to the benchmark's sources, inside the checkout.
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir: filepath.Join("benchmark", "out"), setupReps: 5, probePasses: 5, probeCalls: 1 << 20, log: os.Stdout}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printed := rep.endToEnd
	if cfg.trace {
		printMetrics(rep.endToEnd)
		printed = rep.perLayer
	}
	printMetrics(printed)
	out := jsonResult{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]jsonMetric, len(printed))}
	for _, m := range printed {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("%-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
}
