package llm

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/knowledge"
	"repro/internal/table"
	"repro/internal/text"
)

func hospital() *table.Dataset {
	d := table.New("hospital", []string{"Condition", "MeasureCode", "Score"})
	for i := 0; i < 40; i++ {
		d.MustAppendRow([]string{"surgical infection prevention", "SCIP-1", "85"})
		d.MustAppendRow([]string{"heart attack", "AMI-2", "90"})
		d.MustAppendRow([]string{"pneumonia", "PN-3", "78"})
	}
	return d
}

func allRows(d *table.Dataset) []int {
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// label runs LabelBatch with a background context; nil memo is memo off.
func label(t *testing.T, c *Client, d *table.Dataset, j int, rows []int, g *Guideline, memo *JudgeMemo) []bool {
	t.Helper()
	out, err := c.LabelBatch(context.Background(), d, j, rows, g, memo)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTokens(t *testing.T) {
	if Tokens("") != 0 {
		t.Error("empty string has 0 tokens")
	}
	if got := Tokens("abcd"); got != 2 {
		t.Errorf("Tokens(4 chars) = %d, want 2", got)
	}
	if got := Tokens(strings.Repeat("x", 400)); got != 101 {
		t.Errorf("Tokens(400 chars) = %d, want 101", got)
	}
}

func TestUsageAccumulates(t *testing.T) {
	c := NewClient(Qwen72B)
	d := hospital()
	c.DistributionAnalysis(d, 0, []int{0, 1, 2})
	u := c.Usage()
	if u.Calls != 1 || u.InputTokens == 0 || u.OutputTokens == 0 {
		t.Errorf("usage = %+v, want nonzero tokens and 1 call", u)
	}
	var agg Usage
	agg.Add(Usage{InputTokens: 3, OutputTokens: 4, Calls: 1})
	agg.Add(Usage{InputTokens: 1, OutputTokens: 1, Calls: 1})
	if agg.Total() != 9 || agg.Calls != 2 {
		t.Errorf("Add/Total wrong: %+v", agg)
	}
}

func TestShapeOf(t *testing.T) {
	cases := map[string]string{
		"12:30 pm":    "DSDWL",
		"Bob Johnson": "LWL",
		"80000":       "D",
		"":            "",
	}
	for in, want := range cases {
		if got := ShapeOf(in); got != want {
			t.Errorf("ShapeOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGuidelineFDDetection(t *testing.T) {
	c := NewClient(Qwen72B)
	d := hospital()
	prof := c.DistributionAnalysis(d, 0, allRows(d)[:6])
	g := c.GenerateGuideline(d, 0, []int{1}, prof, allRows(d)[:6])
	if len(g.FDs) == 0 {
		t.Fatal("MeasureCode determines Condition; guideline should carry an FD rule")
	}
	if g.Text == "" {
		t.Error("guideline must render text for token accounting")
	}
}

func TestLabelBatchFindsInjectedErrors(t *testing.T) {
	c := NewClient(Qwen72B)
	d := hospital()
	// Inject one error type per group of rows: FD violations, missing
	// values, typos, and numeric outliers. Errors are diverse (as in real
	// dirty data) and sparse enough (~10% per group) that the dirty-data
	// guideline stays sound. Labeling noise is seeded per cell, so
	// assertions are statistical.
	typos := []string{"pneumonla", "pneumonja", "pnsumonia", "pneumonia!"}
	var fdRows, mvRows, typoRows, outRows, cleanRows []int
	for i := 0; i < 4; i++ {
		d.SetValue(3*i, 0, "pneumonia") // contradicts SCIP-1
		fdRows = append(fdRows, 3*i)
		d.SetValue(3*i+1, 0, "") // AMI rows -> missing
		mvRows = append(mvRows, 3*i+1)
		d.SetValue(3*i+2, 0, typos[i]) // distinct typos of pneumonia
		typoRows = append(typoRows, 3*i+2)
	}
	for i := 30; i < 34; i++ {
		d.SetValue(3*i, 2, "9999999")
		outRows = append(outRows, 3*i)
		cleanRows = append(cleanRows, 3*i+1, 3*i+2, 3*i-1, 3*i-2)
	}
	detected := func(j int, rows []int, corr []int) int {
		prof := c.DistributionAnalysis(d, j, allRows(d)[:8])
		g := c.GenerateGuideline(d, j, corr, prof, allRows(d)[:8])
		labels := label(t, c, d, j, rows, g, nil)
		n := 0
		for _, l := range labels {
			if l {
				n++
			}
		}
		return n
	}
	if got := detected(0, fdRows, []int{1}); got < 3 {
		t.Errorf("FD violations detected %d/4, want >= 3", got)
	}
	if got := detected(0, mvRows, []int{1}); got < 3 {
		t.Errorf("missing values detected %d/4, want >= 3", got)
	}
	if got := detected(0, typoRows, []int{1}); got < 3 {
		t.Errorf("typos detected %d/4, want >= 3", got)
	}
	if got := detected(2, outRows, []int{0}); got < 3 {
		t.Errorf("outliers detected %d/4, want >= 3", got)
	}
	if got := detected(0, cleanRows, []int{1}); got > 2 {
		t.Errorf("clean cells mislabeled %d/16, want <= 2", got)
	}
}

func TestLabelBatchWithoutGuideline(t *testing.T) {
	c := NewClient(Qwen72B)
	d := hospital()
	d.SetValue(0, 0, "")
	labels := label(t, c, d, 0, []int{0, 1, 2}, nil, nil)
	if !labels[0] {
		t.Error("missing value must be caught even without guideline")
	}
}

func TestGenerateCriteriaSkillDropsChecks(t *testing.T) {
	d := hospital()
	full := NewClient(Qwen72B).GenerateCriteria(d, 0, allRows(d), []int{1})
	weakProfile := Qwen7B
	weakProfile.CriteriaSkill = 0.3
	weak := NewClient(weakProfile).GenerateCriteria(d, 0, allRows(d), []int{1})
	if len(weak.Criteria) >= len(full.Criteria) {
		t.Errorf("weak model kept %d criteria, full model %d; weak should drop some",
			len(weak.Criteria), len(full.Criteria))
	}
}

func TestAugmentErrors(t *testing.T) {
	c := NewClient(Qwen72B)
	clean := []string{"Bachelor", "Master", "Phd"}
	out := c.AugmentErrors("Education", clean, []string{"Bechxlor"}, 10)
	if len(out) != 10 {
		t.Fatalf("augmented %d, want 10", len(out))
	}
	for _, v := range out {
		for _, cl := range clean {
			if v == cl {
				t.Errorf("augmented value %q equals a clean source", v)
			}
		}
	}
}

func TestAugmentErrorsEmptyInput(t *testing.T) {
	c := NewClient(Qwen72B)
	if out := c.AugmentErrors("x", nil, nil, 5); out != nil {
		t.Error("no clean values -> no augmentation")
	}
	if out := c.AugmentErrors("x", []string{"a"}, nil, 0); out != nil {
		t.Error("n=0 -> no augmentation")
	}
}

func TestDetectTupleErrorsFMED(t *testing.T) {
	kb := knowledge.NewBase()
	kb.AddEntities("City", "Chicago", "Boston", "Denver")
	c := NewClient(Qwen72B)
	attrs := []string{"City", "Zip"}
	verdict := c.DetectTupleErrors(attrs, []string{"Chicagq", "60601"}, kb)
	if !verdict[0] {
		t.Error("unknown entity (typo) should be flagged via world knowledge")
	}
	if verdict[1] {
		t.Error("attribute without KB coverage should pass")
	}
	verdict = c.DetectTupleErrors(attrs, []string{"", "60601"}, kb)
	if !verdict[0] {
		t.Error("null must be flagged")
	}
}

func TestDeterministicAcrossClients(t *testing.T) {
	d := hospital()
	d.SetValue(0, 0, "")
	run := func() []bool {
		c := NewClient(Qwen72B)
		prof := c.DistributionAnalysis(d, 0, allRows(d)[:6])
		g := c.GenerateGuideline(d, 0, []int{1}, prof, allRows(d)[:6])
		return label(t, c, d, 0, allRows(d)[:30], g, nil)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("labeling must be deterministic for a fixed profile")
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("Qwen2.5-72b")
	if !ok || p.Name != "Qwen2.5-72b" {
		t.Error("built-in profile lookup failed")
	}
	if _, ok := ProfileByName("nonexistent"); ok {
		t.Error("unknown profile must not resolve")
	}
	if len(Profiles()) != 5 {
		t.Errorf("Profiles() = %d entries, want 5", len(Profiles()))
	}
}

// Property: Typo always changes the string or returns a non-empty result,
// and MutateValue never panics on arbitrary input.
func TestMutationProperties(t *testing.T) {
	c := NewClient(Qwen72B)
	f := func(s string, seed int64) bool {
		if len(s) > 24 {
			s = s[:24]
		}
		rng := c.rng(s)
		v := Typo(rng, s)
		if s == "" {
			return v != ""
		}
		_ = MutateValue(rng, s)
		_ = MangleFormat(rng, s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: typo results differ from the source in edit distance >= 1 and
// <= 2 for non-empty ASCII sources.
func TestTypoEditDistance(t *testing.T) {
	c := NewClient(Qwen72B)
	rng := c.rng("typodist")
	for i := 0; i < 200; i++ {
		src := "Bachelor"
		v := Typo(rng, src)
		d := text.Levenshtein(src, v)
		if d < 1 || d > 2 {
			t.Fatalf("Typo(%q) = %q has edit distance %d, want 1..2", src, v, d)
		}
	}
}

func TestGPT4oMiniNoisierThanQwen72(t *testing.T) {
	d := hospital()
	labelAll := func(p Profile) int {
		c := NewClient(p)
		prof := c.DistributionAnalysis(d, 0, allRows(d)[:6])
		g := c.GenerateGuideline(d, 0, []int{1}, prof, allRows(d)[:6])
		labels := label(t, c, d, 0, allRows(d), g, nil)
		n := 0
		for _, l := range labels {
			if l {
				n++
			}
		}
		return n
	}
	// On a perfectly clean dataset every "error" is a false positive.
	if labelAll(GPT4oMini) <= labelAll(Qwen72B) {
		t.Error("GPT-4o-mini profile should produce more false positives than Qwen2.5-72b")
	}
}

func TestPromptPrefixCache(t *testing.T) {
	d := hospital()
	c := NewClient(Qwen72B)
	prof := c.DistributionAnalysis(d, 0, []int{0, 1, 2})
	g := c.GenerateGuideline(d, 0, []int{1}, prof, []int{0, 1, 2})
	base := c.Usage().InputTokens
	label(t, c, d, 0, []int{0, 1}, g, nil)
	first := c.Usage().InputTokens - base
	label(t, c, d, 0, []int{2, 3}, g, nil)
	second := c.Usage().InputTokens - base - first
	if second >= first {
		t.Errorf("second batch should reuse the cached guideline prefix: first=%d second=%d", first, second)
	}
}
