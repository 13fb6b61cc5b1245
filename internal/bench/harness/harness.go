// Package harness wraps the repository's experiments in a reproducible
// benchmarking discipline: warmup passes, N timed repetitions, summary
// statistics (mean, p50/p95/p99, stddev, 95% confidence interval),
// environment metadata, and machine-readable JSON reports.
//
// The design follows golang/benchmarks' bent/benchfmt split: experiments
// stay simple functions that produce Tables, while the harness owns
// repetition, statistics, and serialization. Every numeric
// cell of every table becomes a named metric whose samples are collected
// across repetitions; an experiment's wall time is a metric too. Reporters
// consume the stream of results: TextReporter renders tables and summary
// lines for humans, JSONReporter writes a BENCH_<suite>.json for machines,
// and both can run side by side on one Run.
package harness

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Options configures a Run.
type Options struct {
	// Suite names the run in the report (e.g. "smoke", "paper").
	Suite string
	// Warmup is the number of untimed passes before measurement (negative
	// is treated as zero).
	Warmup int
	// Reps is the number of timed repetitions per experiment (minimum 1).
	Reps int
}

func (o *Options) fill() {
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.Reps < 1 {
		o.Reps = 1
	}
}

// Metric is one named measurement with its per-repetition samples and
// their summary statistics. Names are stable across runs of the same
// experiment set — `<experiment>/t<table#>/<row label>/<column header>` —
// so the same metric can be found in two reports.
type Metric struct {
	Name string `json:"name"`
	// Unit is inferred from the table's column header and title ("ns",
	// "q/s", "s", "MB", "%", "x"); empty when unknown.
	Unit string `json:"unit,omitempty"`
	// HigherIsBetter tells a reader of the report which direction is good:
	// true for throughput-like metrics, false for latency/size/time-like
	// ones (the default).
	HigherIsBetter bool `json:"higher_is_better,omitempty"`
	// Class is empty for table-mined metrics and ClassResource for the
	// harness's allocation/GC accounting; writers omit it when empty.
	Class   string    `json:"class,omitempty"`
	Samples []float64 `json:"samples"`
	Summary Summary   `json:"summary"`
}

// Result is one experiment's outcome under the harness: its wall-time
// statistics over the repetitions, every mined metric, and the tables of
// the final repetition.
type Result struct {
	Experiment string   `json:"experiment"`
	Warmup     int      `json:"warmup"`
	Reps       int      `json:"reps"`
	WallNS     Summary  `json:"wall_ns"`
	Metrics    []Metric `json:"metrics"`
	Tables     []Table  `json:"tables"`
}

// Run drives one harness invocation: it captures the environment once,
// executes experiments with warmup and repetitions, accumulates a Report,
// and streams results to its reporters.
type Run struct {
	opts      Options
	report    *Report
	reporters []Reporter
	start     time.Time
}

// NewRun starts a run. config is recorded verbatim in the report (pass the
// experiment Config so a report is self-describing); reporters receive
// Begin immediately and one Experiment callback per completed experiment.
func NewRun(opts Options, config any, reporters ...Reporter) *Run {
	opts.fill()
	r := &Run{
		opts: opts,
		report: &Report{
			Schema: SchemaVersion,
			Suite:  opts.Suite,
			Config: config,
			Env:    CaptureEnv(),
		},
		reporters: reporters,
		start:     time.Now(),
	}
	for _, rep := range r.reporters {
		rep.Begin(r.report)
	}
	return r
}

// Experiment runs fn under the harness: Warmup untimed passes, then Reps
// timed ones. Numeric table cells and wall time become metrics, and every
// timed repetition is bracketed by MemStats reads so its allocation and GC
// behavior (allocs/op, alloc-bytes/op, GC cycles, GC pause time) lands in
// the report as resource-class metrics; the last repetition's tables are
// kept. The result is appended to the report and streamed to the reporters.
func (r *Run) Experiment(id string, fn func() []Table) Result {
	for i := 0; i < r.opts.Warmup; i++ {
		_ = fn()
	}
	var (
		tables []Table
		walls  []float64
		acc    = newMetricAccumulator()
	)
	for i := 0; i < r.opts.Reps; i++ {
		var wall time.Duration
		res := captureResources(func() {
			start := time.Now()
			tables = fn()
			wall = time.Since(start)
		})
		walls = append(walls, float64(wall.Nanoseconds()))
		acc.addTables(id, tables)
		acc.addResources(id, res)
	}
	res := Result{
		Experiment: id,
		Warmup:     r.opts.Warmup,
		Reps:       r.opts.Reps,
		WallNS:     Summarize(walls),
		Metrics:    acc.finish(),
		Tables:     tables,
	}
	r.report.Results = append(r.report.Results, res)
	for _, rep := range r.reporters {
		rep.Experiment(res)
	}
	return res
}

// Finish stamps the elapsed time, flushes every reporter, and returns the
// completed report alongside the first reporter error.
func (r *Run) Finish() (*Report, error) {
	r.report.ElapsedNS = time.Since(r.start).Nanoseconds()
	var first error
	for _, rep := range r.reporters {
		if err := rep.End(r.report); err != nil && first == nil {
			first = err
		}
	}
	return r.report, first
}

// metricAccumulator collects samples per metric name across repetitions,
// preserving first-seen order.
type metricAccumulator struct {
	order []string
	byKey map[string]*Metric
}

func newMetricAccumulator() *metricAccumulator {
	return &metricAccumulator{byKey: map[string]*Metric{}}
}

// addTables mines one repetition's tables: every cell past the row label
// that parses as a number becomes a sample of the metric named after its
// experiment, table position, row label, and column header.
func (a *metricAccumulator) addTables(expID string, tables []Table) {
	for ti, t := range tables {
		for _, row := range t.Rows {
			if len(row) == 0 {
				continue
			}
			for ci := 1; ci < len(row) && ci < len(t.Header); ci++ {
				v, ok := parseCell(row[ci])
				if !ok {
					continue
				}
				name := fmt.Sprintf("%s/t%d/%s/%s", expID, ti, slug(row[0]), slug(t.Header[ci]))
				m, exists := a.byKey[name]
				if !exists {
					m = &Metric{
						Name:           name,
						Unit:           inferUnit(t.Title, t.Header[ci], row[ci]),
						HigherIsBetter: inferHigherBetter(t.Title, t.Header[ci]),
					}
					a.byKey[name] = m
					a.order = append(a.order, name)
				}
				m.Samples = append(m.Samples, v)
			}
		}
	}
}

func (a *metricAccumulator) finish() []Metric {
	out := make([]Metric, 0, len(a.order))
	for _, name := range a.order {
		m := a.byKey[name]
		m.Summary = Summarize(m.Samples)
		out = append(out, *m)
	}
	return out
}

// parseCell extracts a float from a table cell, tolerating the repo's
// decorations: a sign prefix, a trailing "%" or "x" suffix, and thousands
// separators. Non-numeric cells ("yes", "always", "(+) 23k") are skipped.
func parseCell(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "x")
	s = strings.ReplaceAll(s, ",", "")
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// slug normalizes a label into a metric-name segment: lowercase, with any
// run of characters outside [a-z0-9.%+=-] collapsed to a single dash.
func slug(s string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(strings.TrimSpace(s)) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9',
			r == '.', r == '%', r == '+', r == '=', r == '-':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

// inferUnit guesses a metric's unit from its column header, table title,
// and a sample cell.
func inferUnit(title, header, cell string) string {
	ht := strings.ToLower(header + " " + title)
	switch {
	case strings.HasSuffix(strings.TrimSpace(cell), "%"):
		return "%"
	case strings.Contains(ht, "q/s"):
		return "q/s"
	case strings.Contains(ht, "(ns") || strings.Contains(ht, "ns/") || strings.Contains(ht, " ns") || strings.Contains(ht, "latency"):
		return "ns"
	case strings.Contains(ht, "speedup"):
		return "x"
	case strings.Contains(ht, "mb"):
		return "MB"
	case strings.Contains(ht, "seconds"):
		return "s"
	default:
		return ""
	}
}

// inferHigherBetter reports whether larger values of a metric are better,
// judged from throughput/speedup/improvement keywords in the column header
// or table title. Everything else — latencies, build times, sizes, counter
// metrics — is lower-is-better.
func inferHigherBetter(title, header string) bool {
	ht := strings.ToLower(header + " " + title)
	for _, kw := range []string{"q/s", "speedup", "throughput", "improvement"} {
		if strings.Contains(ht, kw) {
			return true
		}
	}
	return false
}
