package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// withTracing runs fn with span collection enabled, restoring the previous
// state afterwards so other tests see the default.
func withTracing(t *testing.T, fn func()) {
	t.Helper()
	prev := Enabled()
	SetEnabled(true)
	defer SetEnabled(prev)
	fn()
}

func TestDisabledStartIsNil(t *testing.T) {
	SetEnabled(false)
	ctx, tr := NewTrace(context.Background(), "root")
	if tr != nil {
		t.Fatalf("NewTrace returned a live trace while disabled")
	}
	_, sp := Start(ctx, "child")
	if sp != nil {
		t.Fatalf("Start returned a live span while disabled")
	}
	// Every method of the nil forms must be a no-op, not a panic.
	sp.End()
	sp.SetAttr("k", "v")
	sp.SetInt("n", 1)
	tr.Adopt()
	tr.Finish()
	if tr.Adopted() || tr.Tree() != nil || tr.Root() != nil || tr.Spans() != 0 {
		t.Fatalf("nil trace leaked state")
	}
	if data, n := tr.ChromeJSON(); n != 0 || len(data) == 0 {
		t.Fatalf("nil trace chrome export: spans=%d len=%d", n, len(data))
	}
}

func TestSpanTreeShape(t *testing.T) {
	withTracing(t, func() {
		ctx, tr := NewTrace(context.Background(), "request")
		ctx1, a := Start(ctx, "ingest")
		a.SetInt("rows", 42)
		_, a1 := Start(ctx1, "parse")
		a1.End()
		a.End()
		_, b := Start(ctx, "detect")
		time.Sleep(2 * time.Millisecond)
		b.End()
		tr.Finish()

		tree := tr.Tree()
		if tree == nil || tree.Name != "request" {
			t.Fatalf("root = %+v", tree)
		}
		if len(tree.Children) != 2 {
			t.Fatalf("root children = %d, want 2", len(tree.Children))
		}
		ing := tree.Find("ingest")
		if ing == nil || ing.Attrs["rows"] != "42" {
			t.Fatalf("ingest node = %+v", ing)
		}
		if tree.Find("parse") == nil {
			t.Fatalf("nested span missing")
		}
		det := tree.Find("detect")
		if det.DurUS < 1000 {
			t.Fatalf("detect dur_us = %d, want >= 1000", det.DurUS)
		}
		if tree.DurUS < det.StartUS+det.DurUS {
			t.Fatalf("root dur %d shorter than detect end %d", tree.DurUS, det.StartUS+det.DurUS)
		}
		if tr.Spans() != 4 {
			t.Fatalf("spans = %d, want 4", tr.Spans())
		}
	})
}

// TestPhaseMeasuresOnce pins StartPhase's contract: under a live trace the
// numbers End returns are exactly the ones the span's node records (one
// measurement, two readers), ending twice returns the first measurement,
// and with tracing off the phase still measures but creates no span.
func TestPhaseMeasuresOnce(t *testing.T) {
	withTracing(t, func() {
		ctx, tr := NewTrace(context.Background(), "fit")
		ph := StartPhase(ctx, "fit.train")
		ph.SetInt("helpers", 1)
		buf := make([]byte, 1<<20)
		buf[0] = 1
		time.Sleep(time.Millisecond)
		d, alloc := ph.End()
		if d2, alloc2 := ph.End(); d2 != d || alloc2 != alloc {
			t.Fatalf("second End = (%v, %d), want the first (%v, %d)", d2, alloc2, d, alloc)
		}
		tr.Finish()
		node := tr.Tree().Find("fit.train")
		if node == nil {
			t.Fatalf("phase span missing from trace")
		}
		if node.DurUS != d.Microseconds() || node.AllocBytes != alloc {
			t.Fatalf("span dur_us=%d alloc=%d, phase returned dur_us=%d alloc=%d",
				node.DurUS, node.AllocBytes, d.Microseconds(), alloc)
		}
		if d < time.Millisecond || alloc < 1<<20 {
			t.Fatalf("phase measured (%v, %d), want >= 1ms and >= 1 MiB", d, alloc)
		}
		if node.Attrs["helpers"] != "1" {
			t.Fatalf("phase attrs = %v", node.Attrs)
		}
	})

	SetEnabled(false)
	ctx, tr := NewTrace(context.Background(), "fit")
	ph := StartPhase(ctx, "fit.train")
	if ph == nil {
		t.Fatalf("StartPhase returned nil while tracing is off")
	}
	ph.SetInt("helpers", 1) // dropped, not a panic
	if d, _ := ph.End(); d < 0 {
		t.Fatalf("untraced phase duration = %v", d)
	}
	if tr != nil || TraceFromContext(ctx) != nil {
		t.Fatalf("untraced phase created a trace")
	}
}

func TestConcurrentSpans(t *testing.T) {
	withTracing(t, func() {
		ctx, tr := NewTrace(context.Background(), "parallel")
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, sp := Start(ctx, "shard")
				sp.SetInt("i", int64(i))
				sp.End()
			}(i)
		}
		wg.Wait()
		tr.Finish()
		if got := len(tr.Tree().Children); got != 32 {
			t.Fatalf("children = %d, want 32", got)
		}
	})
}

func TestSpanCap(t *testing.T) {
	withTracing(t, func() {
		ctx, tr := NewTrace(context.Background(), "cap")
		for i := 0; i < maxSpans+10; i++ {
			_, sp := Start(ctx, "s")
			sp.End()
		}
		if tr.Spans() != maxSpans {
			t.Fatalf("spans = %d, want cap %d", tr.Spans(), maxSpans)
		}
		_, sp := Start(ctx, "over")
		if sp != nil {
			t.Fatalf("span past the cap was not dropped")
		}
	})
}

func TestChromeExportValidJSONAndLanes(t *testing.T) {
	withTracing(t, func() {
		ctx, tr := NewTrace(context.Background(), "run")
		ctx2, fit := Start(ctx, "fit")
		_, s1 := Start(ctx2, "fit.criteria")
		s1.End()
		fit.End()
		// Two overlapping siblings: force them onto distinct lanes.
		_, p1 := Start(ctx, "score.shard")
		_, p2 := Start(ctx, "score.shard")
		time.Sleep(time.Millisecond)
		p1.End()
		p2.End()
		tr.Finish()

		data, n := tr.ChromeJSON()
		if n != 5 {
			t.Fatalf("spans = %d, want 5", n)
		}
		var f struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				TID  int     `json:"tid"`
				TS   float64 `json:"ts"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatalf("chrome export is not valid JSON: %v\n%s", err, data)
		}
		if len(f.TraceEvents) != 5 {
			t.Fatalf("events = %d, want 5", len(f.TraceEvents))
		}
		var shardTIDs []int
		for _, ev := range f.TraceEvents {
			if ev.Ph != "X" {
				t.Fatalf("event ph = %q, want X", ev.Ph)
			}
			if ev.Name == "score.shard" {
				shardTIDs = append(shardTIDs, ev.TID)
			}
		}
		if len(shardTIDs) != 2 || shardTIDs[0] == shardTIDs[1] {
			t.Fatalf("overlapping siblings share a lane: tids=%v", shardTIDs)
		}
	})
}

func TestRing(t *testing.T) {
	r := NewRing(2)
	s1 := r.Add(&Retained{Name: "a"})
	s2 := r.Add(&Retained{Name: "b"})
	s3 := r.Add(&Retained{Name: "c"})
	if s1 != 1 || s2 != 2 || s3 != 3 {
		t.Fatalf("seqs = %d %d %d", s1, s2, s3)
	}
	list := r.List()
	if len(list) != 2 || list[0].Name != "c" || list[1].Name != "b" {
		t.Fatalf("list = %+v", list)
	}
	if _, ok := r.Get(1); ok {
		t.Fatalf("evicted trace still retrievable")
	}
	if got, ok := r.Get(3); !ok || got.Name != "c" {
		t.Fatalf("Get(3) = %+v %v", got, ok)
	}
}

func TestAdoptPreventsMiddlewareFinish(t *testing.T) {
	withTracing(t, func() {
		_, tr := NewTrace(context.Background(), "job")
		if tr.Adopted() {
			t.Fatalf("fresh trace adopted")
		}
		tr.Adopt()
		if !tr.Adopted() {
			t.Fatalf("Adopt did not stick")
		}
	})
}
