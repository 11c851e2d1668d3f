package zeroed

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/criteria"
	"repro/internal/obs"
)

// TestFitDedupEquivalence pins the fit-phase dedup contract, mirroring
// TestScoreDedupEquivalence: fitting with the per-value-ID caches (criteria
// verdict memo, guideline judgement memo) is bit-identical — every verdict,
// every score bit, every diagnostic — to fitting with them off, across
// worker and shard counts.
func TestFitDedupEquivalence(t *testing.T) {
	benches := detBenches()
	combos := [][2]int{{1, 1}, {1, 4}, {8, 1}, {8, 4}} // {workers, shards}
	if testing.Short() {
		// Smoke slice (the -race CI budget): one bench, the two extreme
		// worker/shard corners. The full grid runs in long mode.
		benches = benches[:1]
		combos = [][2]int{{1, 1}, {8, 4}}
	}
	for _, bench := range benches {
		t.Run(bench.Name, func(t *testing.T) {
			for _, wc := range combos {
				on := detConfig(wc[0], wc[1])
				off := on
				off.DisableFitDedup = true
				a, err := New(on).DetectOn(context.Background(), nil, bench.Dirty)
				if err != nil {
					t.Fatal(err)
				}
				b, err := New(off).DetectOn(context.Background(), nil, bench.Dirty)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsIdentical(t, "fit-dedup-on-vs-off", a, b)
			}
		})
	}
}

// TestFitDedupEquivalenceUnderAblations re-checks the on ≡ off contract on
// the pipeline variants that exercise the caches' edge cases: no guidelines
// (batch-only labeling must stay uncached), no verification (no criteria
// memo in play), and no criteria at all.
func TestFitDedupEquivalenceUnderAblations(t *testing.T) {
	bench := detBenches()[0]
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"no-guidelines", func(c *Config) { c.DisableGuidelines = true }},
		{"no-verification", func(c *Config) { c.DisableVerification = true }},
		{"no-criteria", func(c *Config) { c.DisableCriteria = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			on := detConfig(2, 2)
			tc.mutate(&on)
			off := on
			off.DisableFitDedup = true
			a, err := New(on).DetectOn(context.Background(), nil, bench.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(off).DetectOn(context.Background(), nil, bench.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, tc.name, a, b)
		})
	}
}

// TestFitStageTimings pins the per-stage observability contract: a fit
// reports one timing per pipeline stage, in pipeline order, with sane
// values, and each stage is measured once. With tracing on, every stage's
// fit.<stage> span records exactly the duration and allocation delta its
// StageTiming reports, because both come from the same phase.
func TestFitStageTimings(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)

	bench := detBenches()[0]
	want := []string{"extractor", "criteria", "sample_label", "traindata", "matrix", "train"}
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			obs.SetEnabled(traced)
			ctx, tr := obs.NewTrace(context.Background(), "test")
			m, err := New(detConfig(2, 2)).FitOn(ctx, nil, bench.Dirty)
			tr.Finish()
			obs.SetEnabled(false)
			if err != nil {
				t.Fatal(err)
			}
			stages := m.Info().Stages
			if len(stages) != len(want) {
				t.Fatalf("got %d stage timings, want %d: %+v", len(stages), len(want), stages)
			}
			var sum float64
			var alloc uint64
			for i, st := range stages {
				if st.Name != want[i] {
					t.Errorf("stage %d is %q, want %q", i, st.Name, want[i])
				}
				if st.Seconds < 0 {
					t.Errorf("stage %q has negative duration %v", st.Name, st.Seconds)
				}
				sum += st.Seconds
				alloc += st.AllocBytes
			}
			if total := m.Info().FitRuntime.Seconds(); sum > total {
				t.Errorf("stage durations sum to %v, more than the whole fit (%v)", sum, total)
			}
			if alloc == 0 {
				t.Errorf("stage allocations sum to 0")
			}
			tree := tr.Tree()
			if !traced {
				if tree != nil {
					t.Fatalf("untraced fit produced a trace")
				}
				return
			}
			for _, st := range stages {
				node := tree.Find("fit." + st.Name)
				if node == nil {
					t.Fatalf("span fit.%s missing from trace", st.Name)
				}
				d := time.Duration(math.Round(st.Seconds * 1e9))
				if node.DurUS != d.Microseconds() || node.AllocBytes != st.AllocBytes {
					t.Errorf("stage %q: span dur_us=%d alloc=%d, timing dur_us=%d alloc=%d",
						st.Name, node.DurUS, node.AllocBytes, d.Microseconds(), st.AllocBytes)
				}
			}
		})
	}
}

// TestCriteriaCountNilSet is the regression test for the stageCriteria
// aggregation panic: a nil per-attribute set must count as zero criteria.
func TestCriteriaCountNilSet(t *testing.T) {
	sets := []*criteria.Set{
		{Attr: "a", Criteria: []*criteria.Criterion{{Kind: criteria.KindNotNull, Attr: "a"}}},
		nil,
		{Attr: "c"},
	}
	if got := countCriteria(sets); got != 1 {
		t.Fatalf("countCriteria = %d, want 1", got)
	}
}
