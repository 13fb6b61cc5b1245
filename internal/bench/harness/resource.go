package harness

import (
	"fmt"
	"runtime"
)

// ClassResource marks allocation/GC accounting metrics emitted by the
// harness around every timed repetition; metrics mined from experiment
// tables carry no class.
const ClassResource = "resource"

// resourceSample is the runtime.MemStats delta over one timed repetition:
// what the repetition allocated and what the garbage collector did while it
// ran. Fields mirror the resource metric names.
type resourceSample struct {
	allocs  float64 // heap allocations (Mallocs delta)
	bytes   float64 // cumulative allocated bytes (TotalAlloc delta)
	cycles  float64 // completed GC cycles (NumGC delta)
	pauseNS float64 // total stop-the-world pause time (PauseTotalNs delta)
}

// captureResources runs fn between two ReadMemStats calls and returns the
// deltas. ReadMemStats stops the world briefly, so both reads sit outside
// the caller's wall-time measurement.
func captureResources(fn func()) resourceSample {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return resourceSample{
		allocs:  float64(after.Mallocs - before.Mallocs),
		bytes:   float64(after.TotalAlloc - before.TotalAlloc),
		cycles:  float64(after.NumGC - before.NumGC),
		pauseNS: float64(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// resourceMetricDefs fixes the name suffix, unit, and sample accessor of
// each resource metric. Names are `<experiment>/resource/<suffix>` so they
// sort next to their experiment and never collide with table-mined metrics
// (whose second segment is always t<N>).
var resourceMetricDefs = []struct {
	suffix string
	unit   string
	get    func(resourceSample) float64
}{
	{"allocs-op", "allocs", func(s resourceSample) float64 { return s.allocs }},
	{"alloc-bytes-op", "B", func(s resourceSample) float64 { return s.bytes }},
	{"gc-cycles-op", "", func(s resourceSample) float64 { return s.cycles }},
	{"gc-pause-ns-op", "ns", func(s resourceSample) float64 { return s.pauseNS }},
}

// addResources appends one repetition's resource deltas to the accumulator
// as resource-class metrics. Lower is always better for resources.
func (a *metricAccumulator) addResources(expID string, s resourceSample) {
	for _, def := range resourceMetricDefs {
		name := fmt.Sprintf("%s/resource/%s", expID, def.suffix)
		m, exists := a.byKey[name]
		if !exists {
			m = &Metric{Name: name, Unit: def.unit, Class: ClassResource}
			a.byKey[name] = m
			a.order = append(a.order, name)
		}
		m.Samples = append(m.Samples, def.get(s))
	}
}

// ResourceMetric returns the result's resource metric with the given
// suffix ("allocs-op", "alloc-bytes-op", "gc-cycles-op", "gc-pause-ns-op"),
// or nil when absent (e.g. a report written before resource accounting).
func (r *Result) ResourceMetric(suffix string) *Metric {
	want := r.Experiment + "/resource/" + suffix
	for i := range r.Metrics {
		if r.Metrics[i].Name == want {
			return &r.Metrics[i]
		}
	}
	return nil
}

// resourceLine renders the mean resource profile of a result as one human
// line: allocations, bytes, GC cycles, and GC pause per repetition.
func resourceLine(res Result) string {
	a, b := res.ResourceMetric("allocs-op"), res.ResourceMetric("alloc-bytes-op")
	g, p := res.ResourceMetric("gc-cycles-op"), res.ResourceMetric("gc-pause-ns-op")
	if a == nil || b == nil || g == nil || p == nil {
		return ""
	}
	return fmt.Sprintf("[%s resources: %s allocs/op · %s/op · %.1f GCs/op · %s GC pause/op]",
		res.Experiment, siCount(a.Summary.Mean), siBytes(b.Summary.Mean),
		g.Summary.Mean, siNanos(p.Summary.Mean))
}

// ResourceTable summarizes every experiment's resource profile as one text
// table — one row per experiment, one column per resource metric (means
// across repetitions). It is rendered by the TextReporter from the finished
// report, never mined back into metrics, so the resource-class metrics stay
// the single machine-readable source.
func ResourceTable(r *Report) Table {
	t := Table{
		ID:     "resources",
		Title:  "per-repetition resource profile (MemStats deltas, means across reps)",
		Header: []string{"Experiment", "Allocs/op", "Alloc MB/op", "GC cycles/op", "GC pause ms/op"},
	}
	for _, res := range r.Results {
		a, b := res.ResourceMetric("allocs-op"), res.ResourceMetric("alloc-bytes-op")
		g, p := res.ResourceMetric("gc-cycles-op"), res.ResourceMetric("gc-pause-ns-op")
		if a == nil || b == nil || g == nil || p == nil {
			continue
		}
		t.Rows = append(t.Rows, []string{
			res.Experiment,
			fmt.Sprintf("%.0f", a.Summary.Mean),
			fmt.Sprintf("%.2f", b.Summary.Mean/(1<<20)),
			fmt.Sprintf("%.1f", g.Summary.Mean),
			fmt.Sprintf("%.3f", p.Summary.Mean/1e6),
		})
	}
	return t
}

// siCount formats a count with a k/M/G suffix.
func siCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// siBytes formats a byte count with a B/KB/MB/GB suffix.
func siBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// siNanos formats nanoseconds as ns/µs/ms/s.
func siNanos(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", v/1e3)
	default:
		return fmt.Sprintf("%.0fns", v)
	}
}
