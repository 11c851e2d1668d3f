// Package obs is the zero-dependency tracing spine of the pipeline: a
// context-propagated span tracer that records a tree of named phases with
// wall time, allocation deltas, and key/value attributes, cheap enough to
// leave compiled into every stage.
//
// Cost discipline (the same contract as faultpoint.Eval): when tracing is
// disabled — the default — obs.Start is one atomic load and a nil return;
// no allocation, no lock, no time syscall. When enabled, spans observe
// strictly out of band: wall clock and the runtime's cumulative heap-alloc
// counter, never RNG streams, dedup caches, or any state the pipeline
// computes with — which is what keeps tracing-on bit-identical to
// tracing-off (pinned by TestTraceOnOffBitIdentical).
//
// Usage:
//
//	ctx, tr := obs.NewTrace(ctx, "POST /v1/jobs")   // root span in ctx
//	...
//	ctx, sp := obs.Start(ctx, "fit.criteria")       // child of the ctx span
//	defer sp.End()
//	sp.SetInt("rows", int64(n))
//
// A caller that needs the numbers whether or not tracing is on (the fit's
// per-stage breakdown) opens the span with StartPhase instead: End returns
// the wall time and allocation delta it records, so one measurement feeds
// both the trace and the caller.
//
// All Span and Trace methods are nil-safe, so call sites never branch on
// whether tracing is live. A Trace renders as a JSON span tree (Tree) or as
// Chrome trace_event JSON (WriteChrome) loadable in chrome://tracing.
package obs

import (
	"context"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the package-wide gate. The fast path of Start loads it once
// and bails; nothing else is touched while tracing is off.
var enabled atomic.Bool

// SetEnabled turns span collection on or off process-wide. Serving and
// -trace CLI runs enable it at startup; libraries never toggle it.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether span collection is on.
func Enabled() bool { return enabled.Load() }

// maxSpans bounds one trace's span count so a long-lived stream request
// cannot grow its trace without bound; spans beyond the cap are dropped
// (Start returns nil), never blocked on.
const maxSpans = 4096

// allocSample reads the runtime's cumulative heap-allocation counter —
// /gc/heap/allocs:bytes — which is monotone and, unlike ReadMemStats, does
// not stop the world. The delta across a span is process-wide: concurrent
// spans attribute each other's allocations.
func allocSample() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Span is one named phase inside a trace. Mutation (children, attrs, End)
// is serialized by the owning trace's mutex — span churn is per stage or
// per request phase, tens of operations per request, so one lock is cheap.
// A detached span (tr == nil, from StartPhase with no live trace) belongs
// to one goroutine: it measures, and its attributes are dropped.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	alloc0   uint64
	dur      time.Duration
	alloc    uint64
	attrs    []Attr
	children []*Span
	ended    bool
}

// Trace is one span tree: a root span plus everything started under it.
type Trace struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	root     *Span
	spans    int
	adopted  bool
	finished bool
}

type spanKey struct{}

// ContextWithSpan returns a context carrying the span, so Start calls
// downstream attach their spans under it. Used to hand a trace across
// goroutine boundaries (e.g. from the submit handler to the job runner).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// FromContext returns the current span of the context, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// TraceFromContext returns the trace the context's span belongs to, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	if s := FromContext(ctx); s != nil {
		return s.tr
	}
	return nil
}

// NewTrace creates a trace rooted at name and returns a context carrying
// the root span. Returns (ctx, nil) while tracing is disabled; every method
// of the nil trace is a no-op.
func NewTrace(ctx context.Context, name string) (context.Context, *Trace) {
	if !enabled.Load() {
		return ctx, nil
	}
	t := &Trace{name: name, spans: 1}
	t.root = newSpan(t, name)
	t.start = t.root.start
	return ContextWithSpan(ctx, t.root), t
}

// newSpan opens a span of trace t (nil: detached), reading the wall clock
// and the allocation counter that End reads again.
func newSpan(t *Trace, name string) *Span {
	return &Span{tr: t, name: name, start: time.Now(), alloc0: allocSample()}
}

// Start opens a child span under the context's current span and returns a
// context carrying it. Disabled tracing, a span-free context, or a trace at
// its span cap all return (ctx, nil); the nil span's methods are no-ops, so
// call sites stay branch-free.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if s := child(ctx, name); s != nil {
		return ContextWithSpan(ctx, s), s
	}
	return ctx, nil
}

// StartPhase opens a phase that is measured whether or not tracing is on.
// Under a live trace it is the child span Start would open; otherwise it is
// a detached span that belongs to no trace. Either way it is never nil, and
// its End returns what it measured. No context is returned: work inside the
// phase keeps starting its spans under ctx's span.
func StartPhase(ctx context.Context, name string) *Span {
	if s := child(ctx, name); s != nil {
		return s
	}
	return newSpan(nil, name)
}

// child opens a span under the context's current span. It returns nil when
// tracing is disabled, the context carries no span, or the trace is at its
// span cap.
func child(ctx context.Context, name string) *Span {
	if !enabled.Load() {
		return nil
	}
	parent := FromContext(ctx)
	if parent == nil || parent.tr == nil {
		return nil
	}
	t := parent.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans >= maxSpans {
		return nil
	}
	t.spans++
	s := newSpan(t, name)
	parent.children = append(parent.children, s)
	return s
}

// End closes the span and returns its wall time and allocation delta, the
// numbers the trace records for it. Ending twice keeps and returns the
// first measurement; a nil span returns zeros.
func (s *Span) End() (time.Duration, uint64) {
	if s == nil {
		return 0, 0
	}
	dur := time.Since(s.start)
	var alloc uint64
	if a := allocSample(); a >= s.alloc0 {
		alloc = a - s.alloc0
	}
	if s.tr != nil {
		s.tr.mu.Lock()
		defer s.tr.mu.Unlock()
	}
	if !s.ended {
		s.ended = true
		s.dur = dur
		s.alloc = alloc
	}
	return s.dur, s.alloc
}

// SetAttr annotates the span with a key/value pair. A detached span drops
// it.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, value int64) {
	s.SetAttr(key, itoa(value))
}

// itoa avoids strconv in the signature-level API surface; spans format
// attributes eagerly so renderers stay allocation-free of the originals.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Adopt marks the trace as owned by an asynchronous consumer (a job that
// outlives its submit request): the HTTP middleware that created the trace
// must not finish or retain it.
func (t *Trace) Adopt() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.adopted = true
	t.mu.Unlock()
}

// Adopted reports whether an asynchronous consumer took ownership.
func (t *Trace) Adopted() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.adopted
}

// Finish ends the root span. Safe to call more than once.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	fin := t.finished
	t.finished = true
	t.mu.Unlock()
	if !fin {
		t.root.End()
	}
}

// Root returns the trace's root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Duration returns the root span's duration (elapsed-so-far when the trace
// has not finished).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root.ended {
		return t.root.dur
	}
	return time.Since(t.root.start)
}

// Spans returns the number of spans collected so far.
func (t *Trace) Spans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// Node is the JSON form of one span: offsets and durations in microseconds
// relative to the trace start, the allocation delta in bytes, attributes,
// and children in start order. This is the payload of ?trace=1 envelopes
// and GET /v1/jobs/{id}/trace.
type Node struct {
	Name       string            `json:"name"`
	StartUS    int64             `json:"start_us"`
	DurUS      int64             `json:"dur_us"`
	AllocBytes uint64            `json:"alloc_bytes,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []*Node           `json:"children,omitempty"`
}

// Tree snapshots the trace as a span tree. Unended spans (a live job being
// inspected mid-run) report their elapsed-so-far duration.
func (t *Trace) Tree() *Node {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root.node(t.start, time.Now())
}

// node renders one span (caller holds the trace mutex).
func (s *Span) node(t0, now time.Time) *Node {
	d := s.dur
	if !s.ended {
		d = now.Sub(s.start)
	}
	n := &Node{
		Name:       s.name,
		StartUS:    s.start.Sub(t0).Microseconds(),
		DurUS:      d.Microseconds(),
		AllocBytes: s.alloc,
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			n.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		n.Children = append(n.Children, c.node(t0, now))
	}
	return n
}

// Find returns the first node named name in a depth-first walk, or nil.
// A convenience for tests and the e2e smoke's span assertions.
func (n *Node) Find(name string) *Node {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}
