package zeroed

// Fault-injection determinism: transient LLM-judge failures retried to
// success must not move a single bit of the result — verdicts, float64
// score bits, or token accounting. This is the determinism half of the
// chaos acceptance contract (see internal/faultpoint and internal/retry).

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/faultpoint"
)

func TestDetectBitIdenticalUnderTransientJudgeFaults(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	bench := datasets.Hospital(180, 7)
	cfg := detConfig(2, 1)

	clean, err := New(cfg).DetectOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}

	// Arm a budget of transient faults: the first 3 labeling calls fail
	// before charging tokens, then the backend "recovers".
	if err := faultpoint.Arm("llm.judge.transient", "error(3)"); err != nil {
		t.Fatal(err)
	}
	faulted, err := New(cfg).DetectOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatalf("DetectOn under transient faults: %v", err)
	}
	if hits := faultpoint.Hits("llm.judge.transient"); hits != 3 {
		t.Fatalf("judge failpoint injected %d faults, want 3 (fault path not exercised)", hits)
	}

	assertResultsIdentical(t, "transient-faults", clean, faulted)
	if clean.Usage != faulted.Usage {
		t.Fatalf("token usage drifted under retries: %+v vs %+v (failed attempts must not charge)",
			clean.Usage, faulted.Usage)
	}
}

func TestFitFailsCleanlyWhenRetriesExhausted(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	if err := faultpoint.Arm("llm.judge.transient", "error"); err != nil {
		t.Fatal(err)
	}
	bench := datasets.Hospital(120, 3)
	_, err := New(detConfig(2, 1)).FitOn(context.Background(), nil, bench.Dirty)
	if err == nil {
		t.Fatal("FitOn succeeded with the judge permanently failing")
	}
	if !strings.Contains(err.Error(), "labeling") {
		t.Fatalf("FitOn error %q does not name the labeling stage", err)
	}
}
