package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Label is one constant key=value pair attached to a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Registry names and exports metric instruments. It is only a naming and
// export layer: the instruments themselves are freestanding value objects,
// so layers own and update their metrics directly and the registry walks
// them at scrape time. All methods are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	byNm map[string]*family
}

type family struct {
	name, help, typ string
	series          []*series
	bySig           map[string]*series
}

type series struct {
	labels    []Label
	counter   *Counter
	gauge     *Gauge
	counterFn func() float64
	gaugeFn   func() float64
	hist      *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNm: make(map[string]*family)}
}

func (r *Registry) fam(name, help, typ string) *family {
	f := r.byNm[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, bySig: make(map[string]*series)}
		r.byNm[name] = f
		r.fams = append(r.fams, f)
	}
	return f
}

func sig(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

func (f *family) get(labels []Label) (*series, bool) {
	s, ok := f.bySig[sig(labels)]
	return s, ok
}

func (f *family) put(labels []Label, s *series) {
	s.labels = append([]Label(nil), labels...)
	f.bySig[sig(labels)] = s
	f.series = append(f.series, s)
}

// Counter registers (or returns the previously registered) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, "counter")
	if s, ok := f.get(labels); ok {
		return s.counter
	}
	s := &series{counter: &Counter{}}
	f.put(labels, s)
	return s.counter
}

// Gauge registers (or returns the previously registered) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, "gauge")
	if s, ok := f.get(labels); ok {
		return s.gauge
	}
	s := &series{gauge: &Gauge{}}
	f.put(labels, s)
	return s.gauge
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — for counters that already live elsewhere as atomics.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, "counter")
	if _, ok := f.get(labels); ok {
		return
	}
	f.put(labels, &series{counterFn: fn})
}

// GaugeFunc registers a gauge series whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, "gauge")
	if _, ok := f.get(labels); ok {
		return
	}
	f.put(labels, &series{gaugeFn: fn})
}

// Histogram registers (or returns the previously registered) histogram
// series with the given bucket bounds.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, "histogram")
	if s, ok := f.get(labels); ok {
		return s.hist
	}
	s := &series{hist: NewHistogram(buckets)}
	f.put(labels, s)
	return s.hist
}

// RegisterHistogram adopts an externally owned histogram into the registry,
// so layers that construct their instruments before a server exists can
// still be scraped. Registering the same name+labels twice is a no-op.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	if h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam(name, help, "histogram")
	if _, ok := f.get(labels); ok {
		return
	}
	f.put(labels, &series{hist: h})
}

// MetricSnapshot is one series of a structured registry snapshot.
type MetricSnapshot struct {
	Name      string             `json:"name"`
	Type      string             `json:"type"`
	Labels    []Label            `json:"labels,omitempty"`
	Value     float64            `json:"value,omitempty"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot is a structured point-in-time copy of every registered series,
// JSON-marshalable for /statsz consumers.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Get returns the first series with the given name, or nil.
func (s *Snapshot) Get(name string) *MetricSnapshot {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}

// Snapshot captures every registered series.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out Snapshot
	for _, f := range r.fams {
		for _, s := range f.series {
			m := MetricSnapshot{Name: f.name, Type: f.typ, Labels: s.labels}
			switch {
			case s.hist != nil:
				hs := s.hist.Snapshot()
				m.Histogram = &hs
			case s.counter != nil:
				m.Value = float64(s.counter.Value())
			case s.gauge != nil:
				m.Value = float64(s.gauge.Value())
			case s.counterFn != nil:
				m.Value = s.counterFn()
			case s.gaugeFn != nil:
				m.Value = s.gaugeFn()
			}
			out.Metrics = append(out.Metrics, m)
		}
	}
	return out
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...}; extra, if non-empty, is appended verbatim
// as one more pre-escaped pair (used for the histogram le label).
func labelString(labels []Label, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes every registered series in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			var err error
			switch {
			case s.hist != nil:
				err = writePromHistogram(w, f.name, s)
			case s.counter != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(s.labels, ""), s.counter.Value())
			case s.gauge != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(s.labels, ""), s.gauge.Value())
			case s.counterFn != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(s.labels, ""), formatFloat(s.counterFn()))
			case s.gaugeFn != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(s.labels, ""), formatFloat(s.gaugeFn()))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, s *series) error {
	hs := s.hist.Snapshot()
	var cum int64
	for _, b := range hs.Buckets {
		cum += b.Count
		le := fmt.Sprintf(`le="%s"`, formatFloat(b.UpperBound))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(s.labels, le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(s.labels, ""), formatFloat(hs.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(s.labels, ""), hs.Count)
	return err
}
