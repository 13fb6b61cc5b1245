package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed step of a query's execution, offset-stamped relative to
// the trace start so a snapshot is self-contained.
type Span struct {
	// Name identifies the layer and step, e.g. "admission", "shard_scan",
	// "pagestore".
	Name string `json:"name"`
	// StartNS is the span's start offset from the trace start.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span's duration.
	DurNS int64 `json:"dur_ns"`
	// Attrs carries small integer attributes (shard id, pages read, ...).
	Attrs map[string]int64 `json:"attrs,omitempty"`
}

// QueryTrace records timed spans as one request flows through the serving
// stack: server admission → Sharded fan-out → per-shard index scan →
// page-store reads. It is carried via
// context.Context (ContextWithTrace/FromContext) down the HTTP layer and
// handed to the index through View.WithTrace. All methods are nil-safe, so
// un-traced paths pay only a nil check.
type QueryTrace struct {
	mu    sync.Mutex
	op    string
	start time.Time
	total time.Duration
	spans []Span
}

// NewTrace starts a trace for the named operation.
func NewTrace(op string) *QueryTrace {
	return &QueryTrace{op: op, start: time.Now()}
}

// Op returns the traced operation name.
func (t *QueryTrace) Op() string {
	if t == nil {
		return ""
	}
	return t.op
}

// Start returns the trace start time.
func (t *QueryTrace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// AddSpan records a span that started at start and ran for d. attrs may be
// nil; the map is stored as given and must not be mutated afterwards.
func (t *QueryTrace) AddSpan(name string, start time.Time, d time.Duration, attrs map[string]int64) {
	if t == nil {
		return
	}
	off := start.Sub(t.start)
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, StartNS: int64(off), DurNS: int64(d), Attrs: attrs})
	t.mu.Unlock()
}

// Finish stamps the trace's total duration (measured from its start).
func (t *QueryTrace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total = time.Since(t.start)
	t.mu.Unlock()
}

// Total returns the finished total duration (zero before Finish).
func (t *QueryTrace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// TraceSnapshot is an immutable copy of a finished (or in-flight) trace.
type TraceSnapshot struct {
	Op      string    `json:"op"`
	Start   time.Time `json:"start"`
	TotalNS int64     `json:"total_ns"`
	Spans   []Span    `json:"spans"`
}

// Snapshot copies the trace. Safe to call concurrently with AddSpan.
func (t *QueryTrace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceSnapshot{
		Op:      t.op,
		Start:   t.start,
		TotalNS: int64(t.total),
		Spans:   append([]Span(nil), t.spans...),
	}
}

type traceCtxKey struct{}

// ContextWithTrace attaches t to ctx.
func ContextWithTrace(ctx context.Context, t *QueryTrace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// FromContext returns the trace attached to ctx, or nil.
func FromContext(ctx context.Context) *QueryTrace {
	t, _ := ctx.Value(traceCtxKey{}).(*QueryTrace)
	return t
}
