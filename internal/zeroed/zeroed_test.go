package zeroed

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/table"
)

// smallBench builds a small Hospital-style benchmark for fast pipeline
// tests.
func smallBench(t *testing.T) *datasets.Bench {
	t.Helper()
	return datasets.Hospital(300, 11)
}

// skipIfShort skips tests that run the full pipeline several times over;
// single-run coverage stays on under -short.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-run pipeline test; skipped under -short")
	}
}

func fastConfig() Config {
	cfg := Config{
		LabelRate: 0.08,
		EmbedDim:  16,
		Seed:      1,
	}
	if testing.Short() {
		// Fewer detector epochs under -short; the pipeline's behavior is
		// identical, it just converges less tightly.
		cfg.MLP = nn.DefaultConfig()
		cfg.MLP.Epochs = 6
	}
	return cfg
}

func TestDetectEndToEnd(t *testing.T) {
	b := smallBench(t)
	det := New(fastConfig())
	res, err := det.DetectOn(context.Background(), nil, b.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pred) != b.Dirty.NumRows() || len(res.Pred[0]) != b.Dirty.NumCols() {
		t.Fatal("prediction mask shape mismatch")
	}
	m, err := eval.ComputeAgainst(res.Pred, b.Dirty, b.Clean)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Hospital(300): P=%.3f R=%.3f F1=%.3f (sampled %d, trained on %d, %d criteria)",
		m.Precision, m.Recall, m.F1, res.SampledCells, res.TrainingCells, res.CriteriaCount)
	if m.F1 < 0.5 {
		t.Errorf("F1 = %.3f, want >= 0.5 on the easy Hospital benchmark", m.F1)
	}
	if res.Usage.Calls == 0 || res.Usage.Total() == 0 {
		t.Error("LLM usage accounting missing")
	}
	if res.SampledCells == 0 || res.TrainingCells == 0 {
		t.Error("pipeline diagnostics missing")
	}
}

func TestDetectEmptyDataset(t *testing.T) {
	det := New(fastConfig())
	if _, err := det.DetectOn(context.Background(), nil, table.New("x", []string{"a"})); err == nil {
		t.Error("empty dataset must error")
	}
}

func TestConfigDefaults(t *testing.T) {
	det := New(Config{})
	cfg := det.Config()
	if cfg.LabelRate != 0.05 || cfg.CorrK != 2 || cfg.BatchSize != 20 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.Profile.Name != "Qwen2.5-72b" {
		t.Errorf("default profile = %s, want Qwen2.5-72b", cfg.Profile.Name)
	}
	if cfg.Sampler != SamplerKMeans {
		t.Errorf("default sampler = %s", cfg.Sampler)
	}
}

func TestAblationsRunAndDegrade(t *testing.T) {
	skipIfShort(t)
	b := smallBench(t)
	base := fastConfig()
	f1 := func(cfg Config) float64 {
		res, err := New(cfg).DetectOn(context.Background(), nil, b.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		m, err := eval.ComputeAgainst(res.Pred, b.Dirty, b.Clean)
		if err != nil {
			t.Fatal(err)
		}
		return m.F1
	}
	full := f1(base)

	for _, abl := range []struct {
		name string
		mod  func(*Config)
	}{
		{"w/o Guid.", func(c *Config) { c.DisableGuidelines = true }},
		{"w/o Crit.", func(c *Config) { c.DisableCriteria = true }},
		{"w/o Corr.", func(c *Config) { c.DisableCorrelated = true }},
		{"w/o Veri.", func(c *Config) { c.DisableVerification = true }},
	} {
		cfg := base
		abl.mod(&cfg)
		got := f1(cfg)
		t.Logf("%s: F1=%.3f (full %.3f)", abl.name, got, full)
		if got <= 0 {
			t.Errorf("%s: ablated pipeline must still detect something", abl.name)
		}
	}
}

func TestSamplersAllWork(t *testing.T) {
	skipIfShort(t)
	b := smallBench(t)
	for _, s := range []Sampler{SamplerKMeans, SamplerAgglomerative, SamplerRandom} {
		cfg := fastConfig()
		cfg.Sampler = s
		res, err := New(cfg).DetectOn(context.Background(), nil, b.Dirty)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		m, err := eval.ComputeAgainst(res.Pred, b.Dirty, b.Clean)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("sampler %s: F1=%.3f", s, m.F1)
		if m.F1 <= 0.2 {
			t.Errorf("sampler %s: F1 = %.3f too low", s, m.F1)
		}
	}
}

func TestTokenUsageScalesWithLabelRate(t *testing.T) {
	skipIfShort(t)
	b := smallBench(t)
	usage := func(rate float64) int64 {
		cfg := fastConfig()
		cfg.LabelRate = rate
		res, err := New(cfg).DetectOn(context.Background(), nil, b.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		return res.Usage.Total()
	}
	lo, hi := usage(0.02), usage(0.10)
	if hi <= lo {
		t.Errorf("higher label rate should cost more tokens: %d vs %d", lo, hi)
	}
}

func TestWeakModelDoesWorse(t *testing.T) {
	skipIfShort(t)
	b := smallBench(t)
	f1For := func(p llm.Profile) float64 {
		cfg := fastConfig()
		cfg.Profile = p
		res, err := New(cfg).DetectOn(context.Background(), nil, b.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		m, err := eval.ComputeAgainst(res.Pred, b.Dirty, b.Clean)
		if err != nil {
			t.Fatal(err)
		}
		return m.F1
	}
	strong := f1For(llm.Qwen72B)
	weak := f1For(llm.GPT4oMini)
	t.Logf("Qwen72B F1=%.3f, GPT4oMini F1=%.3f", strong, weak)
	if weak >= strong {
		t.Errorf("GPT-4o-mini profile (F1 %.3f) should underperform Qwen2.5-72b (F1 %.3f)", weak, strong)
	}
}

func TestDeterministicRuns(t *testing.T) {
	b := datasets.Hospital(150, 3)
	run := func() [][]bool {
		res, err := New(fastConfig()).DetectOn(context.Background(), nil, b.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		return res.Pred
	}
	a, c := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				t.Fatal("same config+seed must produce identical predictions")
			}
		}
	}
}

func TestDetectDoesNotMutateInput(t *testing.T) {
	b := datasets.Hospital(150, 5)
	before := b.Dirty.Clone()
	if _, err := New(fastConfig()).DetectOn(context.Background(), nil, b.Dirty); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < before.NumRows(); i++ {
		for j := 0; j < before.NumCols(); j++ {
			if b.Dirty.Value(i, j) != before.Value(i, j) {
				t.Fatalf("DetectOn mutated the input at (%d,%d)", i, j)
			}
		}
	}
}

func TestCapPropagatedKeepsErrors(t *testing.T) {
	var pool []cellLabel
	for i := 0; i < 100; i++ {
		pool = append(pool, cellLabel{row: i, isErr: i < 10})
	}
	capped := capPropagated(pool, 50, newTestRng())
	if len(capped) != 50 {
		t.Fatalf("capped to %d, want 50", len(capped))
	}
	errs := 0
	for _, c := range capped {
		if c.isErr {
			errs++
		}
	}
	if errs != 10 {
		t.Errorf("kept %d error cells, want all 10", errs)
	}
}

func newTestRng() *rand.Rand { return rand.New(rand.NewSource(9)) }

func TestWorkerCountInvariance(t *testing.T) {
	skipIfShort(t)
	b := datasets.Hospital(150, 13)
	run := func(workers int) [][]bool {
		cfg := fastConfig()
		cfg.Workers = workers
		res, err := New(cfg).DetectOn(context.Background(), nil, b.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		return res.Pred
	}
	seq := run(1)
	par := run(4)
	for i := range seq {
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("prediction at (%d,%d) differs between 1 and 4 workers", i, j)
			}
		}
	}
}

func TestLargeDatasetUsesRowSample(t *testing.T) {
	skipIfShort(t)
	// With ClusterSampleRows below the row count, the pipeline must still
	// produce a full prediction mask.
	b := datasets.Hospital(400, 15)
	cfg := fastConfig()
	cfg.ClusterSampleRows = 150
	res, err := New(cfg).DetectOn(context.Background(), nil, b.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pred) != 400 {
		t.Fatalf("mask rows = %d, want 400", len(res.Pred))
	}
	m, err := eval.ComputeAgainst(res.Pred, b.Dirty, b.Clean)
	if err != nil {
		t.Fatal(err)
	}
	if m.F1 <= 0.2 {
		t.Errorf("sampled clustering F1 = %.3f, want > 0.2", m.F1)
	}
}

func TestMaxClustersCapRespected(t *testing.T) {
	skipIfShort(t)
	b := datasets.Hospital(300, 16)
	cfg := fastConfig()
	cfg.LabelRate = 0.5 // would be 150 clusters/attr uncapped
	cfg.MaxClustersPerAttr = 10
	res, err := New(cfg).DetectOn(context.Background(), nil, b.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	// 20 attributes x at most 10 samples each.
	if res.SampledCells > 20*10 {
		t.Errorf("sampled %d cells, cap allows at most 200", res.SampledCells)
	}
}
