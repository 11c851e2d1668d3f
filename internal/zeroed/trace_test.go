package zeroed

// Tracing must be a pure observer: spans record wall time and alloc deltas
// out of band and never touch RNG streams, dedup caches, or any computed
// value. These tests pin that contract bit-for-bit, the same way the
// deterministic-parallelism suite pins worker invariance.

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/obs"
)

// TestTraceOnOffBitIdentical runs the same detection with tracing disabled
// and enabled at 1 and 8 workers and requires identical verdicts and
// identical float64 score bits.
func TestTraceOnOffBitIdentical(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)

	b := detBenches()[0]
	for _, workers := range []int{1, 8} {
		name := fmt.Sprintf("w%d", workers)
		t.Run(name, func(t *testing.T) {
			det := New(detConfig(workers))

			obs.SetEnabled(false)
			base, err := det.DetectOn(context.Background(), nil, b.Dirty)
			if err != nil {
				t.Fatalf("untraced detect: %v", err)
			}

			obs.SetEnabled(true)
			ctx, tr := obs.NewTrace(context.Background(), "detect")
			traced, err := det.DetectOn(ctx, nil, b.Dirty)
			tr.Finish()
			obs.SetEnabled(false)
			if err != nil {
				t.Fatalf("traced detect: %v", err)
			}

			assertResultsIdentical(t, name, base, traced)

			// The trace must actually have observed the run: the fit
			// stages and the sharded scoring pass all hang off the root.
			tree := tr.Tree()
			for _, want := range []string{"fit", "fit.criteria", "fit.train", "score", "score.shard"} {
				if tree.Find(want) == nil {
					t.Fatalf("span %q missing from trace", want)
				}
			}
			// Training borrows every free token its team can use, and
			// nn caps the team at one helper.
			wantHelpers := strconv.Itoa(min(workers, runtime.GOMAXPROCS(0), 2) - 1)
			if got := tree.Find("fit.train").Attrs["helpers"]; got != wantHelpers {
				t.Errorf("fit.train helpers = %q, want %q", got, wantHelpers)
			}
		})
	}
}

// TestTraceSpanlessContextIsFree pins the disabled-and-enabled-but-untraced
// fast paths: a context with no span must never collect anything even while
// the global gate is on.
func TestTraceSpanlessContextIsFree(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(true)
	_, sp := obs.Start(context.Background(), "orphan")
	if sp != nil {
		t.Fatalf("span created without a trace in the context")
	}
}
