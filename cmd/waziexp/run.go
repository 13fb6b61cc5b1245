package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/wazi-index/wazi/internal/bench"
	"github.com/wazi-index/wazi/internal/bench/harness"
)

// cmdRun implements `waziexp run`: select experiments by suite or by id
// list, execute them under the harness, and report through the text
// backend and (with -json) the JSON backend.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("waziexp run", flag.ExitOnError)
	var (
		suite    = fs.String("suite", "", "suite name (paper, serving, full); exclusive with -exp")
		exp      = fs.String("exp", "", "comma-separated experiment ids, or 'all'; exclusive with -suite")
		jsonPath = fs.String("json", "", "write a machine-readable report to this path (BENCH_<suite>.json convention)")
		reps     = fs.Int("reps", 1, "timed repetitions per experiment")
		warmup   = fs.Int("warmup", 0, "untimed warmup passes per experiment")
		scale    = fs.Int("scale", 0, "dataset size per region (0 = default 100,000, paper: 32M)")
		queries  = fs.Int("queries", 0, "range-query workload size (0 = default, paper: 20,000)")
		points   = fs.Int("points", 0, "point-query workload size (0 = default, paper: 50,000)")
		leaf     = fs.Int("leaf", 0, "leaf page capacity L (0 = default 256)")
		seed     = fs.Int64("seed", 0, "random seed (0 = default 1)")
		regions  = fs.String("regions", "", "comma-separated regions (CaliNev,NewYork,Japan,Iberia); empty = all")
		quiet    = fs.Bool("quiet", false, "suppress tables; print only per-experiment summary lines")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "waziexp run: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *suite != "" && *exp != "" {
		fmt.Fprintln(os.Stderr, "waziexp run: -suite and -exp are mutually exclusive")
		return 2
	}

	cfg := bench.Config{
		Scale:        *scale,
		Queries:      *queries,
		PointQueries: *points,
		LeafSize:     *leaf,
		Seed:         *seed,
	}
	if *regions != "" {
		rs, err := parseRegions(*regions)
		if err != nil {
			fmt.Fprintln(os.Stderr, "waziexp run:", err)
			return 2
		}
		cfg.Regions = rs
	}

	exps, suiteName, code := selectExperiments(*suite, *exp)
	if code != 0 {
		return code
	}
	// Record the effective configuration, not the zero-valued flag struct,
	// so the report is self-describing.
	cfg = cfg.Filled()

	reporters := []harness.Reporter{&harness.TextReporter{W: os.Stdout, Quiet: *quiet}}
	if *jsonPath != "" {
		reporters = append(reporters, &harness.JSONReporter{Path: *jsonPath})
	}
	run := harness.NewRun(harness.Options{Suite: suiteName, Warmup: *warmup, Reps: *reps}, cfg, reporters...)
	for _, e := range exps {
		run.Experiment(e.ID, func() []bench.Table { return e.Run(cfg) })
	}
	if _, err := run.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "waziexp run:", err)
		return 1
	}
	if *jsonPath != "" {
		fmt.Printf("report written to %s\n", *jsonPath)
	}
	return 0
}

// selectExperiments resolves the -suite/-exp selection into experiments
// and the suite name recorded in the report. Unknown suite names and
// unknown experiment ids, whether typed or named by a suite, are usage
// errors (exit code 2) — never silently skipped.
func selectExperiments(suite, exp string) (exps []bench.Experiment, suiteName string, code int) {
	var ids []string
	switch {
	case suite != "":
		s, ok := bench.SuiteByName(suite)
		if !ok {
			var names []string
			for _, s := range bench.Suites() {
				names = append(names, s.Name)
			}
			fmt.Fprintf(os.Stderr, "waziexp run: unknown suite %q (want %s)\n", suite, strings.Join(names, ", "))
			return nil, "", 2
		}
		ids, suiteName = s.Experiments, s.Name
	case exp == "" || exp == "all":
		s, _ := bench.SuiteByName("full")
		ids, suiteName = s.Experiments, s.Name
	default:
		ids, suiteName = strings.Split(exp, ","), "custom"
	}
	for _, id := range ids {
		e, ok := bench.ExperimentByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "waziexp run: unknown experiment %q; use `waziexp list`\n", id)
			return nil, "", 2
		}
		exps = append(exps, e)
	}
	return exps, suiteName, 0
}
