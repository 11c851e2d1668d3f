package baselines

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/table"
)

func bench(t *testing.T) *datasets.Bench {
	t.Helper()
	return datasets.Hospital(400, 21)
}

func oracleFor(b *datasets.Bench) LabelOracle {
	mask, err := b.Mask()
	if err != nil {
		panic(err)
	}
	return func(row int) []bool { return mask[row] }
}

func score(t *testing.T, m Method, b *datasets.Bench) eval.Metrics {
	t.Helper()
	pred, err := m.Detect(b.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.ComputeAgainst(pred, b.Dirty, b.Clean)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: P=%.3f R=%.3f F1=%.3f", m.Name(), res.Precision, res.Recall, res.F1)
	return res
}

func TestDBoostDetectsOutliers(t *testing.T) {
	b := bench(t)
	m := score(t, NewDBoost(), b)
	if m.F1 <= 0.1 {
		t.Errorf("dBoost F1 = %.3f, want > 0.1", m.F1)
	}
	if m.Recall >= 0.99 {
		t.Error("dBoost should not catch everything (it has no rule/missing model)")
	}
}

func TestDBoostEmptyNumericSafe(t *testing.T) {
	d := table.New("x", []string{"n"})
	for i := 0; i < 10; i++ {
		d.MustAppendRow([]string{"5"})
	}
	pred, err := NewDBoost().Detect(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pred {
		if pred[i][0] {
			t.Error("constant numeric column has no outliers")
		}
	}
}

func TestNadeefFindsRuleViolations(t *testing.T) {
	b := bench(t)
	m := score(t, NewNadeef(b.FDPairs), b)
	if m.Precision <= 0.3 {
		t.Errorf("Nadeef precision = %.3f, want > 0.3 (rules are precise)", m.Precision)
	}
	if m.Recall >= 0.95 {
		t.Error("Nadeef should miss errors outside its constraints")
	}
}

func TestNadeefNoConstraints(t *testing.T) {
	b := bench(t)
	pred, err := NewNadeef(nil).Detect(b.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	_ = pred // still runs (null + pattern rules only)
}

func TestKataraNeedsKB(t *testing.T) {
	b := bench(t)
	m := score(t, NewKatara(b.KB), b)
	if m.TP == 0 {
		t.Error("Katara with a covering KB should find something on Hospital")
	}
	// Without a KB, Katara finds nothing — the Flights/Beers/Rayyan case.
	f := datasets.Flights(300, 1)
	pred, err := NewKatara(f.KB).Detect(f.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pred {
		for j := range pred[i] {
			if pred[i][j] {
				t.Fatal("Katara without relevant KB must detect nothing")
			}
		}
	}
}

func TestRahaImprovesWithBudget(t *testing.T) {
	b := bench(t)
	oracle := oracleFor(b)
	f1 := func(budget int) float64 {
		r := NewRaha(oracle)
		r.LabelBudget = budget
		r.Seed = 5
		return score(t, r, b).F1
	}
	small := f1(2)
	large := f1(30)
	if large <= small {
		t.Errorf("Raha with 30 labels (F1 %.3f) should beat 2 labels (F1 %.3f)", large, small)
	}
}

func TestRahaRequiresOracle(t *testing.T) {
	if _, err := (&Raha{LabelBudget: 2}).Detect(bench(t).Dirty); err == nil {
		t.Error("Raha without oracle must error")
	}
}

func TestActiveCleanRecordLevel(t *testing.T) {
	b := bench(t)
	m := score(t, NewActiveClean(oracleFor(b)), b)
	// Record-level flagging: recall should be substantial, precision low.
	if m.Recall <= 0.2 {
		t.Errorf("ActiveClean recall = %.3f, want > 0.2", m.Recall)
	}
	if m.Precision >= 0.5 {
		t.Errorf("ActiveClean cell precision = %.3f, should be low (record granularity)", m.Precision)
	}
}

func TestActiveCleanRequiresOracle(t *testing.T) {
	if _, err := (&ActiveClean{Budget: 5}).Detect(bench(t).Dirty); err == nil {
		t.Error("ActiveClean without oracle must error")
	}
}

func TestFMEDTokenCostLinear(t *testing.T) {
	b := bench(t)
	run := func(rows int) int64 {
		client := llm.NewClient(llm.Qwen72B)
		m := NewFMED(client, b.KB)
		prefix := make([]int, rows)
		for i := range prefix {
			prefix[i] = i
		}
		if _, err := m.Detect(b.Dirty.SubsetRows(prefix)); err != nil {
			t.Fatal(err)
		}
		return m.Usage().InputTokens
	}
	half, full := run(200), run(400)
	if full < half*3/2 {
		t.Errorf("FM_ED input tokens should grow ~linearly: %d vs %d", half, full)
	}
}

func TestFMEDDetects(t *testing.T) {
	b := bench(t)
	client := llm.NewClient(llm.Qwen72B)
	m := NewFMED(client, b.KB)
	res := score(t, m, b)
	if res.F1 <= 0.1 {
		t.Errorf("FM_ED F1 = %.3f, want > 0.1 on Hospital (nulls + KB typos)", res.F1)
	}
}

func TestAllMethodsProduceValidMasks(t *testing.T) {
	b := datasets.Beers(300, 2)
	oracle := oracleFor(b)
	methods := []Method{
		NewDBoost(),
		NewNadeef(b.FDPairs),
		NewKatara(b.KB),
		NewRaha(oracle),
		NewActiveClean(oracle),
		NewFMED(llm.NewClient(llm.Qwen72B), b.KB),
	}
	for _, m := range methods {
		pred, err := m.Detect(b.Dirty)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(pred) != b.Dirty.NumRows() || len(pred[0]) != b.Dirty.NumCols() {
			t.Fatalf("%s: mask shape wrong", m.Name())
		}
	}
}
