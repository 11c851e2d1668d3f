// Package nn implements the paper's error detector: a two-hidden-layer
// multilayer perceptron with ReLU activations and a sigmoid output, trained
// with the binary cross-entropy objective of Section III-D using Adam and
// mini-batches. It is written from scratch on float64 slices — no external
// ML dependencies — and is deterministic for a given seed.
//
// The two hidden-layer weight matrices live in flat column-major []float64
// buffers: weight w[r][c] (output unit r, input c) of a layer with n output
// units sits at w[c*n+r], so input column c is the contiguous slice
// w[c*n:(c+1)*n]. Training and inference both run on that one layout, and
// every hot loop is one of internal/kernel's four kernels: kernel.Accum
// runs both forward passes (training and inference alike) and the backward
// delta product, kernel.Rank1 the weight gradients, and kernel.Adam every
// parameter update. Each accumulator still receives b[r] + w[r][0]*x[0] +
// w[r][1]*x[1] + ... in ascending column order, so results are
// bit-identical to a naive row-major dot product, whether the kernels run
// their AVX2 bodies or their Go twins. Snapshot and FromSnapshot convert to
// and from row-major at the artifact boundary. Inference (Predict /
// PredictInto) is allocation-free in steady state, drawing activation
// scratch from an internal pool so that many goroutines can score against
// one fitted model concurrently.
package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/kernel"
)

// Config controls MLP shape and training.
type Config struct {
	Hidden1   int     // width of the first hidden layer
	Hidden2   int     // width of the second hidden layer
	LR        float64 // Adam learning rate
	Epochs    int
	BatchSize int
	Seed      int64
	L2        float64 // weight decay
}

// DefaultConfig mirrors the paper's "simple MLP" setup sized for the
// feature dimensions this pipeline produces.
func DefaultConfig() Config {
	return Config{Hidden1: 64, Hidden2: 32, LR: 1e-3, Epochs: 30, BatchSize: 32, Seed: 1, L2: 1e-5}
}

// MLP is a 2-hidden-layer binary classifier. w1 and w2 are flat
// column-major (see the package comment).
type MLP struct {
	cfg     Config
	in      int
	w1      []float64 // Hidden1 x in, column-major: in columns of Hidden1
	w2      []float64 // Hidden2 x Hidden1, column-major: Hidden1 columns of Hidden2
	w3      []float64 // output weights (len Hidden2)
	b1, b2  []float64
	b3      float64
	trained bool

	// scratch pools forward-pass activation buffers so concurrent
	// inference against one fitted model never allocates in steady state.
	scratch sync.Pool
}

// fwdScratch is one goroutine's activation workspace: one row of each
// hidden layer.
type fwdScratch struct {
	h1, h2 []float64
}

// initScratch sizes the pooled activation workspace from the layer
// widths, so any Hidden1/Hidden2 works without a fixed cap.
func (m *MLP) initScratch() {
	h1n, h2n := m.cfg.Hidden1, m.cfg.Hidden2
	m.scratch.New = func() any {
		return &fwdScratch{
			h1: make([]float64, h1n),
			h2: make([]float64, h2n),
		}
	}
}

// New creates an MLP for the given input dimension with seeded He
// initialization.
func New(in int, cfg Config) *MLP {
	if cfg.Hidden1 <= 0 || cfg.Hidden2 <= 0 {
		def := DefaultConfig()
		if cfg.Hidden1 <= 0 {
			cfg.Hidden1 = def.Hidden1
		}
		if cfg.Hidden2 <= 0 {
			cfg.Hidden2 = def.Hidden2
		}
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &MLP{cfg: cfg, in: in}
	m.w1 = heInit(rng, cfg.Hidden1, in)
	m.w2 = heInit(rng, cfg.Hidden2, cfg.Hidden1)
	m.w3 = heInit(rng, 1, cfg.Hidden2)
	m.b1 = make([]float64, cfg.Hidden1)
	m.b2 = make([]float64, cfg.Hidden2)
	m.initScratch()
	return m
}

// heInit fills a flat column-major rows x cols matrix with seeded
// He-initialized weights. Values are drawn in row-major order (the draw
// order of the historical [][]float64 initialization, so seeded weights are
// unchanged) and stored at their column-major positions.
func heInit(rng *rand.Rand, rows, cols int) []float64 {
	scale := math.Sqrt(2.0 / float64(max(cols, 1)))
	w := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			w[c*rows+r] = rng.NormFloat64() * scale
		}
	}
	return w
}

func sigmoid(x float64) float64 {
	// Numerically stable sigmoid.
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// dotFrom accumulates s + Σ w[i]*x[i] left to right. It serves the
// single-unit output layer, whose weight vector has only one layout.
// Reslicing x to len(w) lets the compiler drop per-iteration bounds checks.
func dotFrom(s float64, w, x []float64) float64 {
	x = x[:len(w)]
	for i, wi := range w {
		s += wi * x[i]
	}
	return s
}

// adamState holds first/second moment estimates for one parameter tensor.
type adamState struct {
	m, v []float64
	t    int
}

func newAdam(n int) *adamState { return &adamState{m: make([]float64, n), v: make([]float64, n)} }

// step applies one Adam update to params, first adding the L2 decay
// l2*params to grads when l2 != 0. The step's scalars come from untyped
// constants, so 1-beta1 is the constant-folded 0.1, not 1 - 0.9 in float64.
func (a *adamState) step(params, grads []float64, lr, l2 float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	a.t++
	kernel.Adam(params, grads, a.m, a.v, &kernel.AdamStep{
		L2: l2, LR: lr, Eps: eps,
		Beta1: beta1, OneMinusBeta1: 1 - beta1,
		Beta2: beta2, OneMinusBeta2: 1 - beta2,
		BC1: 1 - math.Pow(beta1, float64(a.t)),
		BC2: 1 - math.Pow(beta2, float64(a.t)),
	})
}

// Train fits the MLP on a flat row-major feature tile and binary labels y
// (1 = error): X holds nRows vectors of the model's input dimension back
// to back — the layout feature.FeaturesInto and the engine's
// training-matrix stage produce — so training consumes the tile directly
// with no per-row slice headers. It returns the final epoch's mean
// cross-entropy loss. Adam updates apply directly to the flat weight
// buffers.
//
// The context is checked once per epoch; a canceled context aborts training
// with the context's error. Sample validation is fused into the first
// epoch's pass instead of running as a separate O(n·dim) sweep: a
// non-finite feature or label aborts training with an error, as does a
// non-finite epoch loss (divergence, however caused), rather than training
// onward through NaNs. A failed Train never marks the model trained; its
// partially updated weights are discarded by every caller along with the
// error.
func (m *MLP) Train(ctx context.Context, X []float64, nRows int, y []float64) (float64, error) {
	if nRows <= 0 {
		return 0, fmt.Errorf("nn: empty training set")
	}
	if len(X) != nRows*m.in {
		return 0, fmt.Errorf("nn: flat tile has %d values, want %d rows x %d dims = %d",
			len(X), nRows, m.in, nRows*m.in)
	}
	if nRows != len(y) {
		return 0, fmt.Errorf("nn: %d samples but %d labels", nRows, len(y))
	}
	return m.train(ctx, X, nRows, y)
}

// validateSample rejects non-finite features or labels before they can
// poison the weights.
func validateSample(x []float64, label float64, i int) error {
	for k, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("nn: sample %d has non-finite feature %v at index %d", i, v, k)
		}
	}
	if math.IsNaN(label) || math.IsInf(label, 0) {
		return fmt.Errorf("nn: label %d is non-finite (%v)", i, label)
	}
	return nil
}

// train is the Adam/BCE training loop behind Train, over the shape-checked
// flat tile X of n samples. Sample validation happens on first use inside
// epoch 0 rather than as an up-front sweep. It stays a separate function
// because default.pgo keys its hot call sites by this function's name and
// their line offsets within it.
func (m *MLP) train(ctx context.Context, X []float64, n int, y []float64) (float64, error) {
	h1n, h2n := m.cfg.Hidden1, m.cfg.Hidden2
	in := m.in
	rng := rand.New(rand.NewSource(m.cfg.Seed + 7))

	optW1 := newAdam(h1n * in)
	optW2 := newAdam(h2n * h1n)
	optW3 := newAdam(h2n)
	optB1 := newAdam(h1n)
	optB2 := newAdam(h2n)
	optB3 := newAdam(1)

	gradW2 := make([]float64, h2n*h1n)
	gradW3 := make([]float64, h2n)
	gradB1 := make([]float64, h1n)
	gradB2 := make([]float64, h2n)
	gradB3 := make([]float64, 1)

	h1 := make([]float64, h1n)
	h2 := make([]float64, h2n)
	d2 := make([]float64, h2n)
	d1 := make([]float64, h1n)

	// The forward pass runs directly on the model's column-major weights
	// through kernel.Accum, which walks input columns and advances every
	// output unit's accumulator from each: accumulator r still receives
	// b[r] + w[r][0]*x[0] + w[r][1]*x[1] + ... in ascending column order,
	// so the trained weights are bit-identical to the historical row-major
	// loops. Layer 1 lives entirely in that layout — weights, gradient, and
	// Adam moments alike. L2 decay and Adam are strictly elementwise, so the
	// parameter order of a tensor never changes a trained value. Layer 2
	// trains on the row-major mirror w2r, filled once here: read as a
	// column-major h1n x h2n matrix it is W2ᵀ, so d1 = W2ᵀ·d2 is one Accum,
	// and each of its rows takes one gradient row. It is copied into the
	// column-major m.w2 after each Adam step for the next forward pass.
	w2r := make([]float64, h2n*h1n)
	g1t := make([]float64, in*h1n)
	transpose(w2r, m.w2, h1n, h2n)

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}

	var lastLoss float64
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("nn: training canceled at epoch %d: %w", epoch, err)
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss := 0.0
		for start := 0; start < len(idx); start += m.cfg.BatchSize {
			end := min(start+m.cfg.BatchSize, len(idx))
			bs := float64(end - start)
			zero(g1t)
			zero(gradW2)
			zero(gradW3)
			zero(gradB1)
			zero(gradB2)
			gradB3[0] = 0

			for _, i := range idx[start:end] {
				x := X[i*in : (i+1)*in]
				if epoch == 0 {
					if err := validateSample(x, y[i], i); err != nil {
						return 0, err
					}
				}
				p := m.forward(x, h1, h2)

				t := y[i]
				epochLoss += bceLoss(t, p)
				// dL/dlogit for sigmoid + BCE.
				dOut := (p - t) / bs
				for j := range m.w3 {
					gradW3[j] += dOut * h2[j]
					d2[j] = dOut * m.w3[j]
					if h2[j] <= 0 {
						d2[j] = 0
					}
				}
				gradB3[0] += dOut
				// d1 = W2ᵀ·d2 over every row of W2. A row with d2[r] = ±0
				// adds w*±0 = ±0 (the weights are finite) to each d1
				// element, which starts at +0 and so is never −0: the bits
				// are those of skipping the row.
				// The gradient rows keep the skip, since h1 is not
				// validated and an infinite h1 times 0 would be NaN.
				zero(d1)
				kernel.Accum(d1, w2r, d2)
				for r, d2r := range d2 {
					if d2r == 0 {
						continue
					}
					kernel.Rank1(gradW2[r*h1n:(r+1)*h1n], h1, d2[r:r+1])
					gradB2[r] += d2r
				}
				// Layer 1's gradient is one dense rank-1 update, with the
				// deltas of units the ReLU killed stored as exact +0. That
				// changes no bit: g1t and gradB1 start at +0 each batch, a
				// round-to-nearest sum with a +0 operand is never −0, and
				// x is finite (epoch 0 rejected it otherwise), so each
				// 0*x[c] = ±0 added leaves the sum as it was.
				for r, v := range d1 {
					if h1[r] <= 0 {
						d1[r] = 0
						continue
					}
					gradB1[r] += v
				}
				kernel.Rank1(g1t, d1, x)
			}

			// L2 decay + Adam updates. Elementwise math is layout-blind:
			// layer 1 updates in place on the model's column-major weights,
			// layer 2 on its row-major mirror, the rest on their vectors.
			l2, lr := m.cfg.L2, m.cfg.LR
			optW1.step(m.w1, g1t, lr, l2)
			optW2.step(w2r, gradW2, lr, l2)
			optW3.step(m.w3, gradW3, lr, l2)
			optB1.step(m.b1, gradB1, lr, 0)
			optB2.step(m.b2, gradB2, lr, 0)
			b3 := [1]float64{m.b3}
			optB3.step(b3[:], gradB3, lr, 0)
			m.b3 = b3[0]
			transpose(m.w2, w2r, h2n, h1n)
		}
		lastLoss = epochLoss / float64(len(idx))
		if math.IsNaN(lastLoss) || math.IsInf(lastLoss, 0) {
			return 0, fmt.Errorf("nn: non-finite training loss %v at epoch %d", lastLoss, epoch)
		}
	}
	m.trained = true
	return lastLoss, nil
}

// forward runs one input row through both hidden layers, leaving the ReLU
// activations in h1 and h2, and returns the error probability.
func (m *MLP) forward(x, h1, h2 []float64) float64 {
	copy(h1, m.b1)
	kernel.Accum(h1, m.w1, x)
	relu(h1)
	copy(h2, m.b2)
	kernel.Accum(h2, m.w2, h1)
	relu(h2)
	return sigmoid(dotFrom(m.b3, m.w3, h2))
}

// transpose fills dst (a flat cols x rows matrix) with the transpose of
// src (a flat rows x cols matrix), converting between the row-major and
// column-major forms of one matrix. Values are copied verbatim.
func transpose(dst, src []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c*rows+r] = v
		}
	}
}

func bceLoss(t, p float64) float64 {
	const eps = 1e-12
	return -(t*math.Log(p+eps) + (1-t)*math.Log(1-p+eps))
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

// Predict returns the error probability for a single feature vector. It is
// allocation-free in steady state and safe for concurrent use.
func (m *MLP) Predict(x []float64) float64 {
	var out [1]float64
	m.PredictInto(x, 1, out[:])
	return out[0]
}

// PredictInto runs batched inference over a flat row-major feature tile:
// X holds nRows vectors of the model's input dimension back to back, and
// out (length >= nRows) receives the error probability of each row. Each
// row runs the same forward pass as training. The activation scratch is
// pooled, so steady-state calls allocate nothing, and many goroutines may
// score against one fitted model concurrently.
func (m *MLP) PredictInto(X []float64, nRows int, out []float64) {
	if nRows <= 0 {
		return
	}
	in := m.in
	sc := m.getScratch()
	for r := 0; r < nRows; r++ {
		out[r] = m.forward(X[r*in:(r+1)*in], sc.h1, sc.h2)
	}
	m.scratch.Put(sc)
}

// relu clamps negative activations to zero in place.
func relu(h []float64) {
	for i, v := range h {
		if v < 0 {
			h[i] = 0
		}
	}
}

func (m *MLP) getScratch() *fwdScratch { return m.scratch.Get().(*fwdScratch) }

// InputDim returns the model's input dimensionality.
func (m *MLP) InputDim() int { return m.in }

// Trained reports whether Train has completed successfully.
func (m *MLP) Trained() bool { return m.trained }
