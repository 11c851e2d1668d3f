package nn

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func guardCfg() Config {
	return Config{Hidden1: 4, Hidden2: 3, LR: 1e-3, Epochs: 3, BatchSize: 4, Seed: 1}
}

// TestTrainRejectsNonFiniteFeatures pins that NaN/Inf feature values are
// rejected rather than poisoning the weights.
func TestTrainRejectsNonFiniteFeatures(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := New(3, guardCfg())
		X := []float64{1, 2, 3, 4, bad, 6}
		y := []float64{0, 1}
		if _, err := m.Train(context.Background(), X, 2, y, 0); err == nil {
			t.Errorf("Train with feature %v must error", bad)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("error %q should name the non-finite input", err)
		}
		if m.Trained() {
			t.Error("failed Train must not mark the model trained")
		}
	}
}

// TestTrainRejectsNonFiniteLabels mirrors the feature guard on y.
func TestTrainRejectsNonFiniteLabels(t *testing.T) {
	m := New(2, guardCfg())
	if _, err := m.Train(context.Background(), []float64{1, 2, 3, 4}, 2, []float64{0, math.NaN()}, 0); err == nil {
		t.Fatal("Train with a NaN label must error")
	}
	if m.Trained() {
		t.Error("failed Train must not mark the model trained")
	}
}

// TestTrainAbortsOnDivergedLoss pins the epoch-loss guard: a diverging run
// (absurd learning rate on an extreme-valued problem) must abort with a
// non-finite-loss error instead of training onward through NaNs.
func TestTrainAbortsOnDivergedLoss(t *testing.T) {
	cfg := guardCfg()
	cfg.LR = 1e300 // guarantees overflow within an epoch or two
	cfg.Epochs = 50
	m := New(2, cfg)
	X := []float64{1e8, -1e8, -1e8, 1e8, 1e8, 1e8, -1e8, -1e8}
	y := []float64{0, 1, 0, 1}
	_, err := m.Train(context.Background(), X, 4, y, 0)
	if err == nil {
		t.Skip("this configuration converged finitely; guard not exercised")
	}
	if !strings.Contains(err.Error(), "non-finite training loss") {
		t.Fatalf("expected the non-finite loss guard, got: %v", err)
	}
	if m.Trained() {
		t.Error("diverged Train must not mark the model trained")
	}
}

// TestTrainContextCanceled pins per-epoch cancellation: a pre-canceled
// context aborts before the first epoch.
func TestTrainContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := New(2, guardCfg())
	_, err := m.Train(ctx, []float64{1, 2, 3, 4}, 2, []float64{0, 1}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Train with canceled ctx = %v, want context.Canceled", err)
	}
	if m.Trained() {
		t.Error("canceled Train must not mark the model trained")
	}
}
