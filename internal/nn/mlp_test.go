package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// predictOne returns m's error probability for a single feature vector.
func predictOne(m *MLP, x []float64) float64 {
	var out [1]float64
	m.PredictInto(x, 1, out[:])
	return out[0]
}

// trainRows trains m on nested sample rows, packed into the flat
// row-major tile Train consumes.
func trainRows(m *MLP, X [][]float64, y []float64) (float64, error) {
	var tile []float64
	for _, x := range X {
		tile = append(tile, x...)
	}
	return m.Train(context.Background(), tile, len(X), y, 0)
}

// xorData builds the classic non-linearly-separable XOR problem with noise,
// which a linear model cannot solve — proving the hidden layers work.
func xorData(rng *rand.Rand, n int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := float64(rng.Intn(2))
		b := float64(rng.Intn(2))
		X[i] = []float64{a + rng.NormFloat64()*0.05, b + rng.NormFloat64()*0.05}
		if (a == 1) != (b == 1) {
			y[i] = 1
		}
	}
	return X, y
}

func TestLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := xorData(rng, 400)
	cfg := DefaultConfig()
	cfg.Epochs = 120
	m := New(2, cfg)
	loss, err := trainRows(m, X, y)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.2 {
		t.Errorf("final loss = %v, want < 0.2", loss)
	}
	correct := 0
	Xt, yt := xorData(rand.New(rand.NewSource(2)), 200)
	for i, x := range Xt {
		p := predictOne(m, x)
		if (p > 0.5) == (yt[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.95 {
		t.Errorf("XOR accuracy = %v, want >= 0.95", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	m := New(3, DefaultConfig())
	if _, err := trainRows(m, nil, nil); err == nil {
		t.Error("empty training set must error")
	}
	if _, err := trainRows(m, [][]float64{{1, 2, 3}}, []float64{1, 0}); err == nil {
		t.Error("label/sample mismatch must error")
	}
	if _, err := trainRows(m, [][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("dimension mismatch must error")
	}
	if m.Trained() {
		t.Error("failed training must not mark model trained")
	}
}

// TestDeterministicTraining trains twice with one seed, the second time
// offering a helper (which two input columns admit): same loss, same
// predictions.
func TestDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := xorData(rng, 100)
	cfg := DefaultConfig()
	cfg.Epochs = 10
	a := New(2, cfg)
	b := New(2, cfg)
	la, _ := trainRows(a, X, y)
	var tile []float64
	for _, x := range X {
		tile = append(tile, x...)
	}
	lb, _ := b.Train(context.Background(), tile, len(X), y, 1)
	if la != lb {
		t.Errorf("same seed must give identical loss: %v vs %v", la, lb)
	}
	probe := []float64{0.5, 0.5}
	if predictOne(a, probe) != predictOne(b, probe) {
		t.Error("same seed must give identical predictions")
	}
}

func TestProbabilitiesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := xorData(rng, 50)
	cfg := DefaultConfig()
	cfg.Epochs = 3
	m := New(2, cfg)
	if _, err := trainRows(m, X, y); err != nil {
		t.Fatal(err)
	}
	for _, x := range X {
		p := predictOne(m, x)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("prediction %v out of [0,1]", p)
		}
	}
}

func TestSigmoidStability(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Errorf("sigmoid(1000) = %v, want 1", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Errorf("sigmoid(-1000) = %v, want 0", s)
	}
	if s := sigmoid(0); s != 0.5 {
		t.Errorf("sigmoid(0) = %v, want 0.5", s)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	m := New(4, Config{}) // all zero: every default should kick in
	X := [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}}
	y := []float64{0, 1}
	if _, err := trainRows(m, X, y); err != nil {
		t.Fatal(err)
	}
	if !m.Trained() {
		t.Error("model should be trained")
	}
}

// TestPredictIntoMatchesPredict pins inference over a flat tile to
// inference one row at a time, bit for bit.
func TestPredictIntoMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := xorData(rng, 120)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	m := New(2, cfg)
	if _, err := trainRows(m, X, y); err != nil {
		t.Fatal(err)
	}
	n := 32
	tile := make([]float64, n*2)
	for i := 0; i < n; i++ {
		copy(tile[i*2:], X[i])
	}
	out := make([]float64, n)
	m.PredictInto(tile, n, out)
	for i := 0; i < n; i++ {
		if got, want := out[i], predictOne(m, X[i]); got != want {
			t.Fatalf("PredictInto[%d] = %v, one row at a time %v", i, got, want)
		}
	}
	// nRows <= 0 is a no-op.
	m.PredictInto(nil, 0, nil)
}

// TestPredictZeroAlloc guards the steady-state allocation-free contract of
// the inference paths.
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode bypasses sync.Pool caching; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(12))
	X, y := xorData(rng, 80)
	cfg := DefaultConfig()
	cfg.Epochs = 3
	m := New(2, cfg)
	if _, err := trainRows(m, X, y); err != nil {
		t.Fatal(err)
	}
	x := X[0]
	if allocs := testing.AllocsPerRun(200, func() { predictOne(m, x) }); allocs != 0 {
		t.Errorf("one-row PredictInto allocates %v per run, want 0", allocs)
	}
	tile := make([]float64, 16*2)
	out := make([]float64, 16)
	for i := 0; i < 16; i++ {
		copy(tile[i*2:], X[i])
	}
	if allocs := testing.AllocsPerRun(200, func() { m.PredictInto(tile, 16, out) }); allocs != 0 {
		t.Errorf("PredictInto allocates %v per run, want 0", allocs)
	}
}

// TestPredictConcurrentSafe runs concurrent inference against one fitted
// model; pooled scratch must keep results identical to serial calls.
func TestPredictConcurrentSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	X, y := xorData(rng, 100)
	cfg := DefaultConfig()
	cfg.Epochs = 3
	m := New(2, cfg)
	if _, err := trainRows(m, X, y); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(X))
	for i, x := range X {
		want[i] = predictOne(m, x)
	}
	var wg sync.WaitGroup
	errs := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, x := range X {
					if predictOne(m, x) != want[i] {
						errs[g]++
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, n := range errs {
		if n != 0 {
			t.Fatalf("goroutine %d saw %d mismatched predictions", g, n)
		}
	}
}

func BenchmarkTrainSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X, y := xorData(rng, 200)
	cfg := DefaultConfig()
	cfg.Epochs = 5
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New(2, cfg)
		if _, err := trainRows(m, X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrain is one epoch on a Hospital-shaped training set: about
// 25k rows of 150 features through 64/32 hidden units, trained alone
// (helpers=0) and with one helper (helpers=1, clamped to GOMAXPROCS-1).
func BenchmarkTrain(b *testing.B) {
	const n, in = 25000, 150
	tile, y := synthTrainingSet(n, in, 1)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	for _, helpers := range []int{0, 1} {
		b.Run(fmt.Sprintf("helpers=%d", helpers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := New(in, cfg).Train(context.Background(), tile, n, y, helpers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// predictBlock sets the batch sizes TestPredictIntoMatchesReference
// sweeps: every nRows from 1 to 2*predictBlock+1.
const predictBlock = 2

func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X, y := xorData(rng, 100)
	cfg := DefaultConfig()
	cfg.Epochs = 3
	m := New(2, cfg)
	if _, err := trainRows(m, X, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		predictOne(m, X[i%len(X)])
	}
}

// TestGradientNumerically verifies backpropagation against a finite
// difference approximation of the loss gradient, on a tiny network where
// one SGD-like step must reduce loss in the direction backprop indicates.
func TestGradientNumerically(t *testing.T) {
	cfg := Config{Hidden1: 4, Hidden2: 3, LR: 0.05, Epochs: 1, BatchSize: 1, Seed: 5}
	X := [][]float64{{0.3, -0.7}}
	y := []float64{1}

	loss := func(m *MLP) float64 {
		p := predictOne(m, X[0])
		return bceLoss(y[0], p)
	}
	// Finite difference on one weight (flat index 0 = row 0, col 0).
	base := New(2, cfg)
	l0 := loss(base)
	const eps = 1e-6
	base.w1[0] += eps
	l1 := loss(base)
	base.w1[0] -= eps
	numGrad := (l1 - l0) / eps

	// One full training step on a single sample approximates a gradient
	// step: the weight must move opposite the numerical gradient (when the
	// gradient is non-negligible).
	trained := New(2, cfg)
	before := trained.w1[0]
	if _, err := trainRows(trained, X, y); err != nil {
		t.Fatal(err)
	}
	after := trained.w1[0]
	if numGrad > 1e-4 && after >= before {
		t.Errorf("positive gradient %v but weight moved %v -> %v", numGrad, before, after)
	}
	if numGrad < -1e-4 && after <= before {
		t.Errorf("negative gradient %v but weight moved %v -> %v", numGrad, before, after)
	}
}

// TestLossDecreasesOverEpochs checks monotone-ish optimization progress.
func TestLossDecreasesOverEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := xorData(rng, 200)
	short := Config{Hidden1: 16, Hidden2: 8, LR: 1e-3, Epochs: 2, BatchSize: 16, Seed: 7}
	long := short
	long.Epochs = 60
	a := New(2, short)
	la, _ := trainRows(a, X, y)
	b := New(2, long)
	lb, _ := trainRows(b, X, y)
	if lb >= la {
		t.Errorf("loss after 60 epochs (%v) should beat 2 epochs (%v)", lb, la)
	}
}

// TestClassImbalanceStillLearns mirrors the pipeline's real conditions:
// ~10% positive class.
func TestClassImbalanceStillLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		if i%10 == 0 {
			X = append(X, []float64{1 + rng.NormFloat64()*0.1, 0})
			y = append(y, 1)
		} else {
			X = append(X, []float64{rng.NormFloat64() * 0.1, 0})
			y = append(y, 0)
		}
	}
	cfg := DefaultConfig()
	cfg.Epochs = 40
	m := New(2, cfg)
	if _, err := trainRows(m, X, y); err != nil {
		t.Fatal(err)
	}
	if p := predictOne(m, []float64{1, 0}); p < 0.5 {
		t.Errorf("positive-region probability = %v, want >= 0.5 despite imbalance", p)
	}
	if p := predictOne(m, []float64{0, 0}); p > 0.5 {
		t.Errorf("negative-region probability = %v, want < 0.5", p)
	}
}
