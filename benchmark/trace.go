package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	wazi "github.com/wazi-index/wazi"
)

// traceStride is the sampling rate of the traced pass: every 8th op.
const traceStride = 8

// The rungs of the ladder, top to bottom. Each sampled op is executed once
// per rung, on the rig's instance for that rung; a rung's self time is its
// span minus the span of the rung below. core.phased is the bottom rung of
// range ops only; its two children are the paper's projection/scan split.
const (
	rungRoundtrip = "server.roundtrip" // HTTP request over the loopback socket
	rungHandler   = "server.handler"   // Handler().ServeHTTP with a recorder: no kernel TCP
	rungView      = "wazi.view"        // the same call on a pinned View of the Sharded
	rungIndex     = "wazi.index"       // the same call on one Index over the same points
	rungPhased    = "core.phased"      // core.RangeQueryPhased on the bare structure
	rungProject   = "core.projection"
	rungScan      = "core.scan"
)

var rangeRungs = []string{rungRoundtrip, rungHandler, rungView, rungIndex, rungPhased}

// span is one timed call, as the choosing-metrics guide prescribes: name,
// start, end, and the span that caused it. Spans of one op share its id.
type span struct {
	Op      int    `json:"op"`
	Kind    string `json:"kind"`
	Rung    string `json:"rung"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Rungs         []string           `json:"rungs"`
	SelfP50US     map[string]float64 `json:"self_p50_us"`
	TopP50US      float64            `json:"top_p50_us"`
	ResidualShare float64            `json:"residual_share"`
	OverheadX     float64            `json:"overhead_x"`
	Spans         []span             `json:"spans"`
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tracer records spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

// call times fn as one span and returns its duration in nanoseconds.
func (tr *tracer) call(op int, kind, rung, parent string, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	tr.spans = append(tr.spans, span{op, kind, rung, parent, t0.Sub(tr.epoch).Nanoseconds(), t1.Sub(tr.epoch).Nanoseconds()})
	return float64(t1.Sub(t0))
}

// child records a span whose duration the callee measured itself.
func (tr *tracer) child(op int, kind, rung, parent string, start time.Time, d time.Duration) {
	s := start.Sub(tr.epoch).Nanoseconds()
	tr.spans = append(tr.spans, span{op, kind, rung, parent, s, s + d.Nanoseconds()})
}

// rung is one level of the ladder for one kind of op. prep, when set, runs
// before the timed call (building the request a handler will serve).
type rung struct {
	name, parent string
	prep         func(i int)
	run          func(i int) int // executes op i and returns the size of the answer (1/0 for found/absent)
}

// ladder replays a 1-in-8 sample of the range, point and kNN streams down
// the rungs, derives the per-rung self times, and writes the trace file.
// It goes rung by rung, not op by op: each rung replays the whole sample
// before the next starts, so that every instance runs with its own memory
// warm, as it does in the untraced passes.
func (lp *layerProbe) ladder(r *rig) error {
	in := lp.in
	tr := &tracer{epoch: time.Now()}
	h := r.ln.srv.Handler()
	var buf []wazi.Point
	var body []byte
	var req *http.Request
	var rec *httptest.ResponseRecorder
	prep := func(route string) {
		req = httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
		rec = httptest.NewRecorder()
	}
	// served runs the prepared request through the handler tree, no socket.
	served := func() int {
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return -1
		}
		if bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"found":`)) {
			return b2i(bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"found":true`)))
		}
		return leadingInt(rec.Body.Bytes())
	}
	var project, scan time.Duration
	var phasedAt time.Time
	ladders := map[string][]rung{
		"range": {
			{rungRoundtrip, "", nil, func(i int) int { return r.cli.rangeQuery(in.ranges[i]) }},
			{rungHandler, rungRoundtrip, func(i int) { body = rectBody(body, in.ranges[i]); prep("/v1/range") }, func(int) int { return served() }},
			{rungView, rungHandler, nil, func(i int) int {
				buf = r.sh.View().RangeQueryAppend(buf[:0], in.ranges[i])
				return len(buf)
			}},
			{rungIndex, rungView, nil, func(i int) int {
				buf = r.idx.RangeQueryAppend(buf[:0], in.ranges[i])
				return len(buf)
			}},
			{rungPhased, rungIndex, nil, func(i int) int {
				phasedAt = time.Now()
				pts, p, s := r.z.RangeQueryPhased(in.ranges[i])
				project, scan = p, s
				return len(pts)
			}},
		},
		"point": {
			{rungRoundtrip, "", nil, func(i int) int { return b2i(r.cli.pointQuery(in.lookups[i])) }},
			{rungHandler, rungRoundtrip, func(i int) { body = pointBody(body, in.lookups[i]); prep("/v1/point") }, func(int) int { return served() }},
			{rungView, rungHandler, nil, func(i int) int { return b2i(r.sh.View().PointQuery(in.lookups[i])) }},
			{rungIndex, rungView, nil, func(i int) int { return b2i(r.idx.PointQuery(in.lookups[i])) }},
		},
		"knn": {
			{rungRoundtrip, "", nil, func(i int) int { return r.cli.knn(in.knn[i], knnK) }},
			{rungHandler, rungRoundtrip, func(i int) { body = knnBody(body, in.knn[i], knnK); prep("/v1/knn") }, func(int) int { return served() }},
			{rungView, rungHandler, nil, func(i int) int {
				buf = r.sh.View().KNNAppend(buf[:0], in.knn[i], knnK)
				return len(buf)
			}},
			{rungIndex, rungView, nil, func(i int) int {
				buf = r.idx.KNNAppend(buf[:0], in.knn[i], knnK)
				return len(buf)
			}},
		},
	}
	nk := lp.cfg.w.sz.knn
	streams := map[string][2]int{ // stream length and stride
		"range": {len(in.ranges), traceStride},
		"point": {len(in.lookups), traceStride},
		"knn":   {nk, max(1, min(traceStride, nk/64))},
	}
	dur := map[string]map[string][]float64{"range": {}, "point": {}, "knn": {}}
	var totalProject, totalScan time.Duration
	mismatches := 0
	for _, kind := range []string{"range", "point", "knn"} {
		var first []int // the top rung's answers
		for k, rg := range ladders[kind] {
			j := 0
			for i := 0; i < streams[kind][0]; i += streams[kind][1] {
				if rg.prep != nil {
					rg.prep(i)
				}
				var n int
				d := tr.call(i, kind, rg.name, rg.parent, func() { n = rg.run(i) })
				dur[kind][rg.name] = append(dur[kind][rg.name], d)
				if rg.name == rungPhased {
					tr.child(i, kind, rungProject, rungPhased, phasedAt, project)
					tr.child(i, kind, rungScan, rungPhased, phasedAt.Add(project), scan)
					dur[kind][rungProject] = append(dur[kind][rungProject], float64(project))
					dur[kind][rungScan] = append(dur[kind][rungScan], float64(scan))
					totalProject, totalScan = totalProject+project, totalScan+scan
				}
				if k == 0 {
					first = append(first, n)
				} else if n != first[j] {
					mismatches++
				}
				j++
			}
		}
	}
	if mismatches > 0 || r.cli.failures() > 0 {
		return fmt.Errorf("traced pass: %d answers differ between rungs, %d requests failed", mismatches, r.cli.failures())
	}

	// Self times per range op: each rung minus the rung below; the bottom
	// rung minus its two phases. Per op they sum to the top rung exactly;
	// their medians need not, and the difference is the residual.
	rd := dur["range"]
	self := map[string]float64{}
	var sum float64
	for k, rung := range rangeRungs {
		below := make([]float64, len(rd[rung]))
		if k+1 < len(rangeRungs) {
			copy(below, rd[rangeRungs[k+1]])
		} else {
			for j := range below {
				below[j] = rd[rungProject][j] + rd[rungScan][j]
			}
		}
		for j, d := range rd[rung] {
			below[j] = d - below[j]
		}
		self[rung] = median(below)
		sum += self[rung]
	}
	for _, rung := range []string{rungProject, rungScan} {
		self[rung] = median(append([]float64(nil), rd[rung]...))
		sum += self[rung]
	}
	p50 := func(kind, rung string) float64 { return median(append([]float64(nil), dur[kind][rung]...)) }
	top := p50("range", rungRoundtrip)
	// The workload's own entry point decides which rung its untraced range
	// latency is compared with.
	entry := rungIndex
	switch {
	case lp.cfg.w.http:
		entry = rungRoundtrip
	case lp.cfg.w.sharded:
		entry = rungView
	}
	tf := traceFile{Workload: lp.cfg.w.name, Seed: lp.cfg.seed,
		Rungs: append(append([]string(nil), rangeRungs...), rungProject, rungScan), SelfP50US: self,
		TopP50US: top, ResidualShare: ratio(top-sum, top), OverheadX: ratio(p50("range", entry), lp.lat.rangeP50),
		Spans: tr.spans}

	lp.add("server.handler_range_us", "us", p50("range", rungHandler))
	lp.add("server.handler_point_us", "us", p50("point", rungHandler))
	lp.add("server.net_range_us", "us", self[rungRoundtrip])
	lp.add("server.self_range_us", "us", self[rungHandler])
	lp.add("wazi.view_self_range_us", "us", self[rungView])
	lp.add("wazi.index_self_range_us", "us", self[rungIndex])
	lp.add("core.phased_self_us", "us", self[rungPhased])
	lp.add("core.projection_us", "us", self[rungProject])
	lp.add("core.scan_us", "us", self[rungScan])
	lp.add("core.projection_share", "share", ratio(totalProject.Seconds(), (totalProject+totalScan).Seconds()))
	for _, kind := range []string{"range", "point", "knn"} {
		lp.add("wazi.sharded_over_index_"+kind+"_x", "x", ratio(p50(kind, rungView), p50(kind, rungIndex)))
	}
	lp.add("trace.residual_share", "share", tf.ResidualShare)
	lp.add("trace.overhead_x", "x", tf.OverheadX)

	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(lp.cfg.outDir, "trace-"+lp.cfg.w.name+".json"), data, 0o644)
}
