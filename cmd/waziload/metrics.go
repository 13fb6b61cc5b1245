package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/wazi-index/wazi/internal/bench/harness"
	"github.com/wazi-index/wazi/internal/obs"
)

// metricsSnap is one scrape of a waziserve /metrics endpoint, reduced to
// the lookups the server-side table needs.
type metricsSnap struct {
	fams map[string]*obs.PromFamily
}

// scrapeMetrics GETs and parses a Prometheus text endpoint.
func scrapeMetrics(url string) (*metricsSnap, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", url, resp.StatusCode)
	}
	fams, err := obs.ParsePromText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", url, err)
	}
	return &metricsSnap{fams: fams}, nil
}

// value returns the first sample of a plain counter/gauge family, 0 when
// absent.
func (m *metricsSnap) value(name string) float64 {
	f, ok := m.fams[name]
	if !ok {
		return 0
	}
	for _, s := range f.Samples {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// routeValue returns the sample called name in family fam whose route label
// is route and, when phase is not empty, whose phase label is phase; 0 when
// absent.
func (m *metricsSnap) routeValue(fam, name, route, phase string) float64 {
	f, ok := m.fams[fam]
	if !ok {
		return 0
	}
	for _, s := range f.Samples {
		if s.Name == name && s.Labels["route"] == route && s.Labels["phase"] == phase {
			return s.Value
		}
	}
	return 0
}

// phaseRows is the latency budget of the window: for every route that
// served requests in it, one row per phase — mean µs per request, and the
// phase's share of the route's handler wall time — in the server's own
// order, which puts unattributed last.
func phaseRows(before, after *metricsSnap) [][]string {
	const phases, wall = "wazi_request_phase_seconds_total", "wazi_http_request_seconds"
	f, ok := after.fams[phases]
	if !ok {
		return nil
	}
	var rows [][]string
	for _, s := range f.Samples {
		route, phase := s.Labels["route"], s.Labels["phase"]
		reqs := after.routeValue(wall, wall+"_count", route, "") - before.routeValue(wall, wall+"_count", route, "")
		sum := after.routeValue(wall, wall+"_sum", route, "") - before.routeValue(wall, wall+"_sum", route, "")
		if reqs <= 0 || sum <= 0 {
			continue
		}
		d := s.Value - before.routeValue(phases, phases, route, phase)
		rows = append(rows, []string{
			fmt.Sprintf("%s %s (µs/request, share)", route, phase),
			fmt.Sprintf("%.2f (%.1f%%)", d/reqs*1e6, 100*d/sum),
		})
	}
	return rows
}

// histogram collapses a histogram family's cumulative _bucket samples
// (summed across label sets, e.g. routes) into ascending per-bucket counts
// ready for obs.QuantileFromBuckets, plus the total observation count.
func (m *metricsSnap) histogram(name string) (bounds []float64, counts []int64, total int64) {
	byLe := map[float64]float64{}
	f, ok := m.fams[name]
	if !ok {
		return nil, nil, 0
	}
	for _, s := range f.Samples {
		switch s.Name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				continue
			}
			byLe[le] += s.Value
		case name + "_count":
			total += int64(s.Value)
		}
	}
	for le := range byLe {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	counts = make([]int64, len(bounds))
	prev := 0.0
	for i, le := range bounds {
		counts[i] = int64(byLe[le] - prev) // de-accumulate: cumulative -> per-bucket
		prev = byLe[le]
	}
	return bounds, counts, total
}

// histSum returns a histogram family's _sum sample (summed across label
// sets), 0 when absent.
func (m *metricsSnap) histSum(name string) float64 {
	f, ok := m.fams[name]
	if !ok {
		return 0
	}
	sum := 0.0
	for _, s := range f.Samples {
		if s.Name == name+"_sum" {
			sum += s.Value
		}
	}
	return sum
}

// histDeltaQuantile estimates a quantile of a histogram family over the
// window between two scrapes.
func histDeltaQuantile(before, after *metricsSnap, name string, q float64) (float64, int64) {
	b0, c0, n0 := before.histogram(name)
	b1, c1, n1 := after.histogram(name)
	if len(b1) == 0 {
		return 0, 0
	}
	d := make([]int64, len(c1))
	copy(d, c1)
	if len(b0) == len(b1) {
		for i := range d {
			d[i] -= c0[i]
		}
		n1 -= n0
	}
	return obs.QuantileFromBuckets(b1, d, q), n1
}

// serverMetricsTable folds the before/after scrape pair into a wazi-bench
// table so server-side observations land in the same report as the
// client-side load numbers.
func serverMetricsTable(before, after *metricsSnap) harness.Table {
	p95, reqs := histDeltaQuantile(before, after, "wazi_http_request_seconds", 0.95)
	p50, _ := histDeltaQuantile(before, after, "wazi_http_request_seconds", 0.50)
	gcP95, _ := histDeltaQuantile(before, after, "wazi_go_gc_pause_seconds", 0.95)

	dHits := after.value("wazi_cache_hits_total") - before.value("wazi_cache_hits_total")
	dMiss := after.value("wazi_cache_misses_total") - before.value("wazi_cache_misses_total")
	hitRate := 0.0
	if dHits+dMiss > 0 {
		hitRate = 100 * dHits / (dHits + dMiss)
	}

	rows := [][]string{
		{"http requests (window)", fmt.Sprintf("%d", reqs)},
		{"http p50 (ms)", fmt.Sprintf("%.3f", p50*1e3)},
		{"http p95 (ms)", fmt.Sprintf("%.3f", p95*1e3)},
		{"shed (429s)", fmt.Sprintf("%.0f", after.value("wazi_http_shed_total")-before.value("wazi_http_shed_total"))},
		{"cache hit rate (%)", fmt.Sprintf("%.1f", hitRate)},
		{"gc pause p95 (ms)", fmt.Sprintf("%.3f", gcP95*1e3)},
		{"gc pause total (ms)", fmt.Sprintf("%.3f", (after.histSum("wazi_go_gc_pause_seconds")-before.histSum("wazi_go_gc_pause_seconds"))*1e3)},
		{"gc pause slo breaches", fmt.Sprintf("%.0f", after.value("wazi_gc_pause_slo_breaches_total")-before.value("wazi_gc_pause_slo_breaches_total"))},
		{"heap alloc (MB)", fmt.Sprintf("%.1f", after.value("wazi_go_heap_alloc_bytes")/(1<<20))},
		{"goroutines", fmt.Sprintf("%.0f", after.value("wazi_go_goroutines"))},
		{"slow queries", fmt.Sprintf("%.0f", after.value("wazi_slowlog_recorded_total")-before.value("wazi_slowlog_recorded_total"))},
		{"profile captures", fmt.Sprintf("%.0f", after.value("wazi_profile_captures_total")-before.value("wazi_profile_captures_total"))},
	}
	rows = append(rows, phaseRows(before, after)...)
	return harness.Table{
		ID:     "server-metrics",
		Title:  "server-side metrics scraped from /metrics (deltas over the run)",
		Header: []string{"Metric", "Value"},
		Rows:   rows,
		Notes: []string{
			"Quantiles are interpolated from histogram bucket deltas between the pre- and post-run scrape.",
			"heap/goroutines are point-in-time values at the final scrape.",
			"Phase rows split each route's handler wall time (wazi_http_request_seconds_sum) by wazi_request_phase_seconds_total; a route's shares sum to 100%.",
		},
	}
}
