package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/serve"
	"repro/internal/zeroed"
)

// The self-test runs every workload at a tiny scale. It checks two things:
// every metric BENCHMARK.json names is emitted with its unit, and the
// correctness gate rejects a reply with one verdict flipped.

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program emits %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds zeroedd and fits several small models")
	}
	bin := filepath.Join(t.TempDir(), "zeroedd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/zeroedd").CombinedOutput(); err != nil {
		t.Fatalf("build zeroedd: %v\n%s", err, out)
	}
	for _, wl := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			o := opts{workload: wl, seed: 3, trace: trace, rows: 100, minSamples: 4, clients: 2,
				zeroedd: bin, out: t.TempDir(), pgo: "none"}
			var buf bytes.Buffer
			if err := run(o, &buf); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", wl, trace, err, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", wl, trace, res.Correct, res.Attempted, res.Failed, buf.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s missing or not in %s", wl, trace, d.name, d.unit)
				}
			}
		}
	}
}

func TestGateTripsOnFlippedVerdict(t *testing.T) {
	bench := datasets.Hospital(100, 5)
	pool := zeroed.NewPool(0)
	m, err := zeroed.New(fitConfig).FitOn(context.Background(), pool, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildGate(context.Background(), m, pool, "m-000001", bench.Dirty, bench.Clean, 10, columnValues(bench.Dirty), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := g.batches[0]
	reply := func(pred [][]bool) []byte {
		enc, err := json.Marshal(serve.ScoreResult{ModelID: "m-000001", Attrs: g.attrs, Rows: len(pred),
			Flagged: countTrue(pred), Pred: pred, Scores: b.scores, ScoreMS: 7})
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	flipped := make([][]bool, len(b.pred))
	for i := range b.pred {
		flipped[i] = append([]bool(nil), b.pred[i]...)
	}
	flipped[3][2] = !flipped[3][2]

	if seg, err := segment(reply(b.pred)); err != nil || !bytes.Equal(seg, b.scoreSeg) {
		t.Fatalf("gate rejects the correct score reply (err %v)", err)
	}
	if seg, _ := segment(reply(flipped)); bytes.Equal(seg, b.scoreSeg) {
		t.Error("gate accepts a score reply with one verdict flipped")
	}
	if sameResult(&zeroed.Result{Pred: flipped, Scores: b.scores}, b.pred, b.scores) {
		t.Error("in-process check accepts one flipped verdict")
	}
	if digest(&zeroed.Result{Pred: flipped, Scores: b.scores}) == digest(&zeroed.Result{Pred: b.pred, Scores: b.scores}) {
		t.Error("verdict digest ignores one flipped verdict")
	}

	s := g.streams[0]
	summary := []byte(`{"done":true,"model":"m-000001","version":1,"rows":40,"drift":{}}` + "\n")
	if !checkStream(append(append([]byte(nil), s.lines...), summary...), s) {
		t.Fatal("gate rejects the correct stream reply")
	}
	bad := bytes.Replace(s.lines, []byte(`"pred":[false`), []byte(`"pred":[true`), 1)
	if bytes.Equal(bad, s.lines) {
		bad = bytes.Replace(s.lines, []byte(`"pred":[true`), []byte(`"pred":[false`), 1)
	}
	if checkStream(append(bad, summary...), s) {
		t.Error("gate accepts a stream reply with one verdict flipped")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	tr.spans = []span{
		{name: "root", start: 0, end: 100 * time.Millisecond, parent: -1},
		{name: "a", start: 10 * time.Millisecond, end: 40 * time.Millisecond, parent: 0},
		{name: "a", start: 30 * time.Millisecond, end: 50 * time.Millisecond, parent: 0},  // overlaps the first
		{name: "b", start: 90 * time.Millisecond, end: 120 * time.Millisecond, parent: 0}, // runs past the root
	}
	got := tr.layers()
	if self := got["root"].selfMS[0]; self < 49.999 || self > 50.001 {
		t.Errorf("root self time %vms, want 50ms (100 minus 40 covered by a and 10 by b)", self)
	}
	if n := len(got["a"].selfMS); n != 2 {
		t.Errorf("layer a has %d spans, want 2", n)
	}
}
