package llm

import "testing"

// TestLabelBatchDedupMatchesLabelBatch pins the labeling memo's exactness
// contract: LabelBatch deduping through a JudgeMemo produces identical
// verdicts and identical token charges to LabelBatch with a nil memo,
// batch by batch, on a dataset with heavy value duplication and injected
// errors.
func TestLabelBatchDedupMatchesLabelBatch(t *testing.T) {
	build := func() (*Client, []*Guideline) { return NewClient(Qwen72B), nil }

	dPlain := hospital()
	dMemo := hospital()
	dPlain.SetValue(0, 0, "")
	dMemo.SetValue(0, 0, "")
	dPlain.SetValue(4, 0, "pneumonla")
	dMemo.SetValue(4, 0, "pneumonla")

	cPlain, _ := build()
	cMemo, _ := build()
	rows := allRows(dPlain)
	for j := 0; j < dPlain.NumCols(); j++ {
		profP := cPlain.DistributionAnalysis(dPlain, j, rows[:8])
		gP := cPlain.GenerateGuideline(dPlain, j, []int{(j + 1) % dPlain.NumCols()}, profP, rows[:8])
		profM := cMemo.DistributionAnalysis(dMemo, j, rows[:8])
		gM := cMemo.GenerateGuideline(dMemo, j, []int{(j + 1) % dMemo.NumCols()}, profM, rows[:8])

		memo := NewJudgeMemo(dMemo, j, gM)
		for s := 0; s < len(rows); s += 20 {
			end := min(s+20, len(rows))
			want := label(t, cPlain, dPlain, j, rows[s:end], gP, nil)
			got := label(t, cMemo, dMemo, j, rows[s:end], gM, memo)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("col %d row %d: memo verdict %v != plain %v", j, rows[s:end][i], got[i], want[i])
				}
			}
		}
		// The memo must be deduplicating on this replicated dataset.
		if len(memo.cache) >= dMemo.NumRows() {
			t.Errorf("col %d: memo holds %d entries for %d rows — no dedup", j, len(memo.cache), dMemo.NumRows())
		}
	}
	if cPlain.Usage() != cMemo.Usage() {
		t.Fatalf("token usage differs: plain %+v vs memo %+v", cPlain.Usage(), cMemo.Usage())
	}
}

// TestNewJudgeMemoNilGuideline pins the inadmissibility rule: batch-only
// labeling (nil guideline) never gets a memo, and LabelBatch with the
// memo NewJudgeMemo returns for it equals LabelBatch with a nil memo.
func TestNewJudgeMemoNilGuideline(t *testing.T) {
	d := hospital()
	if NewJudgeMemo(d, 0, nil) != nil {
		t.Fatal("nil guideline must yield a nil memo")
	}
	c1 := NewClient(Qwen72B)
	c2 := NewClient(Qwen72B)
	rows := []int{0, 1, 2, 3, 4}
	a := label(t, c1, d, 0, rows, nil, nil)
	b := label(t, c2, d, 0, rows, nil, NewJudgeMemo(d, 0, nil))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: verdict differs", rows[i])
		}
	}
}
