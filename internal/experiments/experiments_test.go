package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// Small-scale options keep experiment tests fast while preserving shape.
func testOpts() Options { return Options{Scale: 0.1, Seed: 1, TaxSizes: []int{1000, 6000}} }

// skipIfShort skips bench-scale experiment tests under -short: each runs
// full multi-method pipelines and dominates the suite's runtime.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("bench-scale experiment; skipped under -short")
	}
}

func TestTable3Shape(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	o := testOpts()
	o.Out = &buf
	res, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 6 {
		t.Fatalf("datasets = %d, want 6", len(res.Datasets))
	}
	if len(res.Methods) != 7 {
		t.Fatalf("methods = %d, want 7", len(res.Methods))
	}
	// Headline claim: ZeroED wins most datasets.
	wins := res.Wins("ZeroED")
	t.Log(buf.String())
	if wins < 3 {
		t.Errorf("ZeroED wins %d/6 datasets, want >= 3 (paper: most)", wins)
	}
}

func TestTable4AblationsDegrade(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	o := testOpts()
	o.Out = &buf
	res, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(buf.String())
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (4 ablations + full)", len(res.Rows))
	}
	// Mean F1 of the full pipeline should be at least that of each
	// ablation (allow small slack for the tiny scale).
	mean := func(row string) float64 {
		var s float64
		for _, d := range res.Datasets {
			s += res.Cells[row][d].F1
		}
		return s / float64(len(res.Datasets))
	}
	full := mean("ZeroED")
	for _, abl := range []string{"w/o Guid.", "w/o Crit."} {
		if a := mean(abl); a > full+0.03 {
			t.Errorf("%s mean F1 %.3f should not exceed full pipeline %.3f", abl, a, full)
		}
	}
	// Correlated context triples the feature dimension, so its benefit
	// needs realistic data volume (go run ./cmd/experiments -exp table4
	// -scale 1.0); at this starved test scale we assert only the robust
	// invariant — it must help on the dependency-rich Hospital benchmark.
	if a := res.Cells["w/o Corr."]["Hospital"].F1; a > res.Cells["ZeroED"]["Hospital"].F1+0.03 {
		t.Errorf("w/o Corr. on Hospital F1 %.3f should not exceed full %.3f",
			a, res.Cells["ZeroED"]["Hospital"].F1)
	}
}

func TestTable5ModelOrdering(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	o := testOpts()
	o.Out = &buf
	res, err := Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(buf.String())
	if len(res.Models) != 5 {
		t.Fatalf("models = %d, want 5", len(res.Models))
	}
	best := res.MeanF1("Qwen2.5-72b")
	worst := res.MeanF1("GPT-4o-mini")
	if best <= worst {
		t.Errorf("Qwen2.5-72b mean F1 %.3f should exceed GPT-4o-mini %.3f", best, worst)
	}
}

func TestTable6SamplerOrdering(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	o := testOpts()
	o.Out = &buf
	res, err := Table6(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(buf.String())
	mean := func(s string) float64 {
		var sum float64
		for _, d := range res.Datasets {
			sum += res.Cells[s][d].F1
		}
		return sum / float64(len(res.Datasets))
	}
	if mean("k-Means") < mean("Random")-0.05 {
		t.Errorf("k-Means mean F1 %.3f should not trail Random %.3f", mean("k-Means"), mean("Random"))
	}
}

func TestFig6RahaCurveRises(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	o := testOpts()
	o.Out = &buf
	res, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(buf.String())
	// Averaged across datasets, the curve's tail should beat its head.
	head, tail := 0.0, 0.0
	for _, d := range res.Datasets {
		c := res.F1[d]
		head += c[0]
		tail += c[len(c)-1]
	}
	if tail <= head {
		t.Errorf("Raha curve should rise with labels: head=%.3f tail=%.3f", head, tail)
	}
}

func TestFig8TokenReduction(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	o := testOpts()
	o.Out = &buf
	res, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(buf.String())
	// ZeroED pays a fixed reasoning overhead (criteria, analysis,
	// guidelines) while FM_ED pays per tuple, so the reduction must grow
	// with dataset size and be positive at the larger size — the Fig. 8b
	// crossover shape. The paper's >90% reduction needs 200k rows
	// (cmd/experiments -exp fig8 -scale 1.0).
	redAt := func(i int) float64 {
		z := res.PerSize["ZeroED"][i].Total()
		f := res.PerSize["FM_ED"][i].Total()
		return 1 - float64(z)/float64(f)
	}
	small, large := redAt(0), redAt(len(res.TaxSizes)-1)
	if large <= small {
		t.Errorf("token reduction should grow with size: %.2f -> %.2f", small, large)
	}
	if large < 0.05 {
		t.Errorf("token reduction at %d rows = %.2f, want clearly positive past the crossover", res.TaxSizes[len(res.TaxSizes)-1], large)
	}
	// FM_ED must dominate on input tokens (it prompts every tuple).
	for _, d := range res.Datasets {
		z := res.PerDataset["ZeroED"][d]
		f := res.PerDataset["FM_ED"][d]
		if f.InputTokens == 0 || z.Calls == 0 {
			t.Errorf("%s: missing usage accounting", d)
		}
	}
}

func TestFig9LabelRateImproves(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	o := testOpts()
	o.Out = &buf
	res, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(buf.String())
	// Mean F1 at 5% should beat mean F1 at 1%.
	lo, hi := 0.0, 0.0
	for _, d := range res.Datasets {
		lo += res.Metrics[d][0].F1
		hi += res.Metrics[d][len(res.Values)-1].F1
	}
	if hi <= lo {
		t.Errorf("F1 should improve with label rate: 1%%=%.3f 5%%=%.3f", lo, hi)
	}
}

func TestFig11Scenarios(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	o := testOpts()
	o.Out = &buf
	res, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(buf.String())
	want := []string{"T", "MV", "PV", "RV", "O", "ME"}
	if strings.Join(res.Scenarios, ",") != strings.Join(want, ",") {
		t.Errorf("scenarios = %v, want %v", res.Scenarios, want)
	}
	if len(res.Methods) != 7 {
		t.Errorf("methods = %d, want 7", len(res.Methods))
	}
	// ZeroED should be strong on the mixed scenario (the paper's claim).
	if res.F1["ZeroED"]["ME"] <= res.F1["Katara"]["ME"] {
		t.Error("ZeroED should beat Katara on mixed errors")
	}
}

func TestFig7RuntimeAccounting(t *testing.T) {
	skipIfShort(t)
	o := testOpts()
	o.TaxSizes = []int{300, 600}
	res, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Methods) != 7 {
		t.Fatalf("methods = %d, want 7", len(res.Methods))
	}
	for _, m := range res.Methods {
		for _, d := range res.Datasets {
			if res.PerDataset[m][d] <= 0 {
				t.Errorf("%s on %s: missing runtime", m, d)
			}
		}
		if len(res.PerSize[m]) != 2 {
			t.Errorf("%s: missing Tax sweep runtimes", m)
		}
	}
	// Simple heuristics must be much faster than the LLM-driven methods,
	// the paper's Fig. 7a observation.
	for _, d := range res.Datasets {
		if res.PerDataset["dBoost"][d] >= res.PerDataset["ZeroED"][d] {
			t.Errorf("%s: dBoost (%v) should be faster than ZeroED (%v)",
				d, res.PerDataset["dBoost"][d], res.PerDataset["ZeroED"][d])
		}
	}
}

func TestFig10CorrSweepShape(t *testing.T) {
	skipIfShort(t)
	o := testOpts()
	res, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 5 || res.Values[0] != 1 || res.Values[4] != 5 {
		t.Fatalf("sweep values = %v", res.Values)
	}
	for _, d := range res.Datasets {
		if len(res.Metrics[d]) != 5 {
			t.Fatalf("%s: missing sweep points", d)
		}
	}
	// The paper: k=2..3 is optimal; k=1 lacks context, k=5 adds noise. The
	// k>1 benefit needs realistic data volume (unified features scale with
	// 1+k while training data does not), so at this starved scale we
	// assert structural sanity: every sweep point produces a working
	// detector, and the k=2..3 region is not catastrophically below the
	// sweep's best.
	at := func(i int) float64 {
		var s float64
		for _, d := range res.Datasets {
			s += res.Metrics[d][i].F1
		}
		return s / float64(len(res.Datasets))
	}
	best := 0.0
	for i := range res.Values {
		if v := at(i); v > best {
			best = v
		}
		if at(i) <= 0.1 {
			t.Errorf("k=%d mean F1 %.3f: detector collapsed", int(res.Values[i]), at(i))
		}
	}
	mid := at(1)
	if at(2) > mid {
		mid = at(2)
	}
	if mid < best-0.2 {
		t.Errorf("k=2..3 mean F1 %.3f too far below sweep best %.3f", mid, best)
	}
}
