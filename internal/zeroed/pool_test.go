package zeroed

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/feature"
	"repro/internal/nn"
)

// TestTrainReturnsPoolTokens pins how the training stage borrows from the
// pool: it takes free helper tokens only for its own run, and every return
// path — success, invalid sample, divergence, cancellation — hands all of
// them back with no helper goroutine left running into the stages after.
func TestTrainReturnsPoolTokens(t *testing.T) {
	ext := feature.NewExtractor(datasets.Hospital(60, 4).Dirty, feature.Config{EmbedDim: 8})
	dim := ext.Dim()
	const n = 150
	rng := rand.New(rand.NewSource(3))
	X := make([]float64, n*dim)
	y := make([]float64, n)
	for i := range X {
		X[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = float64(i % 2)
	}
	mlp := nn.Config{Hidden1: 16, Hidden2: 8, Epochs: 2, BatchSize: 32, Seed: 1}
	pool := NewPool(8)

	train := func(ctx context.Context, cfg nn.Config, X []float64) error {
		t.Helper()
		before := runtime.NumGoroutine()
		e := &engine{cfg: Config{MLP: cfg}, ctx: ctx, pool: pool, ext: ext}
		_, _, err := e.stageTrain(X, n, y)
		if len(pool.tokens) != 0 {
			t.Errorf("%d pool tokens still held after training (err %v)", len(pool.tokens), err)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after training, %d before (err %v)", runtime.NumGoroutine(), before, err)
			}
			time.Sleep(time.Millisecond)
		}
		return err
	}

	ctx := context.Background()
	if err := train(ctx, mlp, X); err != nil {
		t.Fatal(err)
	}

	bad := append([]float64(nil), X...)
	bad[(n-1)*dim] = math.NaN()
	if err := train(ctx, mlp, bad); err == nil || !strings.Contains(err.Error(), "non-finite feature") {
		t.Errorf("invalid sample: error %v", err)
	}

	diverge := mlp
	diverge.LR = 1e300
	huge := make([]float64, len(X))
	for i, v := range X {
		huge[i] = v * 1e8
	}
	if err := train(ctx, diverge, huge); err == nil || !strings.Contains(err.Error(), "non-finite training loss") {
		t.Errorf("diverging run: error %v", err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := train(canceled, mlp, X); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Errorf("canceled run: error %v", err)
	}

	// A busy pool lends nothing; training still runs, on the caller alone.
	held := pool.lend(pool.Workers())
	if held != pool.Workers()-1 {
		t.Fatalf("lend took %d of %d free tokens", held, pool.Workers()-1)
	}
	e := &engine{cfg: Config{MLP: mlp}, ctx: ctx, pool: pool, ext: ext}
	if _, _, err := e.stageTrain(X, n, y); err != nil {
		t.Fatal(err)
	}
	if len(pool.tokens) != held {
		t.Errorf("busy pool: %d tokens held after training, want %d", len(pool.tokens), held)
	}
	pool.giveBack(held)
}
