// Command waziexp reproduces the paper's evaluation: it runs the §6
// experiments and two serving-layer experiments under the harness (warmup,
// repetitions, summary statistics) and emits optional machine-readable
// BENCH_<suite>.json reports. Performance of the serving stack is measured
// by `go run ./benchmark` (BENCHMARK.json), not here.
//
// Usage:
//
//	waziexp run  -suite paper -reps 1 -json BENCH_paper.json
//	waziexp run  -exp fig6,fig7 -reps 5 -warmup 1 -scale 400000
//	waziexp list
//	waziexp promcheck metrics.txt -require wazi_http_request_seconds
//
// Experiment ids match the paper's artifact numbers (tab1…fig13) plus the
// serving-layer experiments "serving-http" and "repartition"; suites bundle
// them (paper, serving, full). See docs/EXPERIMENTS.md for the mapping of
// every id to its paper figure and knobs.
//
// Exit codes: 0 on success, 1 on a failed run or promcheck, 2 on usage
// errors — including unknown experiment ids and unknown suite names.
package main

import (
	"fmt"
	"os"
	"strings"

	"github.com/wazi-index/wazi/internal/bench"
	"github.com/wazi-index/wazi/internal/dataset"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		os.Exit(cmdRun(os.Args[2:]))
	case "list":
		os.Exit(cmdList())
	case "promcheck":
		os.Exit(cmdPromcheck(os.Args[2:]))
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		if strings.HasPrefix(os.Args[1], "-") {
			fmt.Fprintf(os.Stderr, "waziexp: top-level flags moved under the run subcommand: waziexp run %s\n\n", strings.Join(os.Args[1:], " "))
		} else {
			fmt.Fprintf(os.Stderr, "waziexp: unknown command %q\n\n", os.Args[1])
		}
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `waziexp — the paper's evaluation for the WaZI reproduction

commands:
  run        run experiments under the harness (see waziexp run -h)
  list       list experiment ids and suites
  promcheck  validate a Prometheus text-format scrape (e.g. from /metrics)

examples:
  waziexp run -suite paper -reps 1 -json BENCH_paper.json
  waziexp run -exp fig6,fig7 -reps 5 -warmup 1
  waziexp promcheck metrics.txt -require wazi_http_request_seconds
`)
}

// cmdList prints every experiment id with its title, then the suites.
func cmdList() int {
	fmt.Println("experiments:")
	for _, e := range bench.Experiments() {
		fmt.Printf("  %-12s %s\n", e.ID, e.Title)
	}
	fmt.Println("\nsuites:")
	for _, s := range bench.Suites() {
		fmt.Printf("  %-12s %s\n", s.Name, s.Description)
		fmt.Printf("  %-12s   (%s)\n", "", strings.Join(s.Experiments, ", "))
	}
	return 0
}

// parseRegions parses a comma-separated region list.
func parseRegions(list string) ([]dataset.Region, error) {
	var out []dataset.Region
	for _, name := range strings.Split(list, ",") {
		r, found := dataset.RegionByName(strings.TrimSpace(name))
		if !found {
			return nil, fmt.Errorf("unknown region %q (want CaliNev, NewYork, Japan, or Iberia)", name)
		}
		out = append(out, r)
	}
	return out, nil
}
