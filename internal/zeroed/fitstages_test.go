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
			m, err := New(detConfig(2)).FitOn(ctx, nil, bench.Dirty)
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
