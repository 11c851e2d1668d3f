package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark's own tracer. Spans wrap the calls the benchmark makes into
// each layer's public functions (and each HTTP request it sends); nothing
// inside the program is instrumented. Spans are kept in memory and written
// out once, when the run ends, as Chrome trace_event JSON.

// span is one timed call. start and end are offsets from the tracer's
// creation; parent indexes the enclosing span (-1 for a root); lane is the
// client goroutine that made the call (0 for set-up); n counts the work the
// call was given (bytes or cells), 0 when unused.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	lane       int
	n          int64
}

// tracer records spans. A nil tracer records nothing, so an untraced call
// costs one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 when t is nil).
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, lane: lane})
	return len(t.spans) - 1
}

// end closes a span opened by begin, recording n units of work.
func (t *tracer) end(id int, n int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	t.spans[id].n = n
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	selfMS []float64 // per span: duration minus the time its children cover
	units  int64     // summed n
	totMS  float64   // summed duration
}

// layers computes per-name statistics. A span's self time is its duration
// minus the union of its children's intervals, so a parent that merely
// waits on its children reads near zero.
func (t *tracer) layers() map[string]*layerStat {
	out := map[string]*layerStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	for i, s := range t.spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			ivs = append(ivs, [2]time.Duration{t.spans[k].start, t.spans[k].end})
		}
		dur := s.end - s.start
		self := dur - covered(ivs, s.start, s.end)
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		st.selfMS = append(st.selfMS, ms(self))
		st.units += s.n
		st.totMS += ms(dur)
	}
	return out
}

// covered returns the length of the union of intervals, clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			sum += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	TS   float64          `json:"ts"`  // microseconds since the tracer started
	Dur  float64          `json:"dur"` // microseconds
	Args map[string]int64 `json:"args,omitempty"`
}

// writeChrome writes every span as a Chrome trace_event "X" event, one lane
// (tid) per client, in the {"traceEvents": [...]} form that `zeroed -trace`
// also emits.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		ev := chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
		}
		if s.n != 0 {
			ev.Args = map[string]int64{"n": s.n}
		}
		events = append(events, ev)
	}
	t.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
