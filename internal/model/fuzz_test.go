package model

import (
	"context"
	"testing"

	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/zeroed"
)

// FuzzLoadModel feeds arbitrary bytes to the artifact decoder. The
// invariant is totality: Decode either returns an error or a model whose
// scoring path is safe — no panics, no out-of-range indexing, no unbounded
// allocation — even when the fuzzer repairs checksums and smuggles a
// structurally valid but semantically hostile artifact past the framing.
func FuzzLoadModel(f *testing.F) {
	// The seed fit is deliberately tiny (a checked-in corpus entry carries a
	// full valid artifact): under fuzzing instrumentation every worker
	// process pays this setup, so it must stay sub-second.
	bench := datasets.Hospital(30, 3)
	m, err := zeroed.New(zeroed.Config{
		LabelRate: 0.1, EmbedDim: 8, Seed: 3, Workers: 1,
		MLP: nn.Config{Hidden1: 8, Hidden2: 4, Epochs: 2, Seed: 1},
	}).FitOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := Encode(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data)
		if err != nil {
			return
		}
		// A decoded model must be scoreable without panicking: build one
		// row of the model's arity from novel values and score it.
		row := make([]string, len(decoded.Attrs()))
		for j := range row {
			row[j] = "fuzz"
		}
		decoded.SetWorkers(1)
		if _, err := decoded.ScoreRowsOn(context.Background(), nil, [][]string{row}); err != nil {
			t.Logf("scoring decoded artifact: %v", err)
		}
	})
}
