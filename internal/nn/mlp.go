// Package nn implements the paper's error detector: a two-hidden-layer
// multilayer perceptron with ReLU activations and a sigmoid output, trained
// with the binary cross-entropy objective of Section III-D using Adam and
// mini-batches. It is written from scratch on float64 slices — no external
// ML dependencies — and is deterministic for a given seed.
//
// The two hidden-layer weight matrices live in flat column-major []float64
// buffers: weight w[r][c] (output unit r, input c) of a layer with n output
// units sits at w[c*n+r], so input column c is the contiguous slice
// w[c*n:(c+1)*n]. Training and inference both run on that one layout: every
// kernel walks input columns and advances all output accumulators from each,
// and every accumulator still receives b[r] + w[r][0]*x[0] + w[r][1]*x[1] +
// ... in ascending column order, so results are bit-identical to a naive
// row-major dot product. Snapshot and FromSnapshot convert to and from
// row-major at the artifact boundary. Inference (Predict / PredictInto) is
// allocation-free in steady state, drawing activation scratch from an
// internal pool so that many goroutines can score against one fitted model
// concurrently.
package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
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

// predictBlock is the number of rows PredictInto advances together, the
// row count blockAccum is unrolled for: each weight loaded from a column
// slice feeds this many rows' accumulators. Two rows keep both rows' four
// inputs in registers on amd64; four rows spill and measure slower.
const predictBlock = 2

// fwdScratch is one goroutine's activation workspace: predictBlock rows of
// each hidden layer, row-major (row b's units at h[b*width:(b+1)*width]).
type fwdScratch struct {
	h1, h2 []float64
}

// initScratch sizes the pooled activation workspace from the layer
// widths, so any Hidden1/Hidden2 works without a fixed cap.
func (m *MLP) initScratch() {
	h1n, h2n := m.cfg.Hidden1, m.cfg.Hidden2
	m.scratch.New = func() any {
		return &fwdScratch{
			h1: make([]float64, predictBlock*h1n),
			h2: make([]float64, predictBlock*h2n),
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

func (a *adamState) step(params, grads []float64, lr float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	a.t++
	bc1 := 1 - math.Pow(beta1, float64(a.t))
	bc2 := 1 - math.Pow(beta2, float64(a.t))
	grads = grads[:len(params)]
	am := a.m[:len(params)]
	av := a.v[:len(params)]
	for i := range params {
		g := grads[i]
		am[i] = beta1*am[i] + (1-beta1)*g
		av[i] = beta2*av[i] + (1-beta2)*g*g
		params[i] -= lr * (am[i] / bc1) / (math.Sqrt(av[i]/bc2) + eps)
	}
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

	// The forward pass runs directly on the model's column-major weights.
	// The hot per-sample loops walk one input column at a time and update
	// every output unit's accumulator from it: each accumulator r still
	// receives exactly b[r] + w[r][0]*x[0] + w[r][1]*x[1] + ... in
	// ascending column order — the same left-to-right association as a
	// naive dot product — so the trained weights are bit-identical to the
	// historical row-major loops. The payoff is instruction-level
	// parallelism: a single row's dot product is one latency-bound chain of
	// dependent adds, while the column walk advances h1n independent chains
	// per cache-friendly sequential load. Layer 1 lives entirely in that
	// layout — weights, gradient, and Adam moments alike — with nothing to
	// convert on the way in or out. L2 decay and Adam are strictly
	// elementwise (each parameter's update depends only on its own gradient
	// and moment history, plus step-count scalars), so the parameter order
	// of a tensor never changes a trained value. Layer 2 is read row-major
	// in the backward pass (one row per surviving output delta), so it
	// trains on the row-major mirror w2r, filled once here, and is copied
	// into the column-major m.w2 after each Adam step for the next forward
	// pass.
	w2r := make([]float64, h2n*h1n)
	g1t := make([]float64, in*h1n)
	transpose(w2r, m.w2, h1n, h2n)
	d1nzIdx := make([]int32, h1n)
	d1nzVal := make([]float64, h1n)

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
				// Forward, column-major: four input columns per pass, each
				// accumulator taking its four products in ascending column
				// order — a naive dot product's add sequence, at roughly
				// half the instructions per multiply-add (the accumulator
				// load/store and loop overhead amortize over four columns).
				copy(h1, m.b1)
				colMajorAccum(h1, m.w1, x, in)
				for r, s := range h1 {
					if s < 0 {
						h1[r] = 0
					}
				}
				copy(h2, m.b2)
				colMajorAccum(h2, m.w2, h1, h1n)
				for r, s := range h2 {
					if s < 0 {
						h2[r] = 0
					}
				}
				p := sigmoid(dotFrom(m.b3, m.w3, h2))

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
				for j := range d1 {
					d1[j] = 0
				}
				for r := 0; r < h2n; r++ {
					d2r := d2[r]
					if d2r == 0 {
						continue
					}
					// Reslice scratch views to the row length so the inner
					// loop runs without bounds checks; per-element arithmetic
					// order is unchanged.
					row := w2r[r*h1n : (r+1)*h1n]
					g := gradW2[r*h1n : r*h1n+len(row)]
					hr := h1[:len(row)]
					dr := d1[:len(row)]
					for c, w := range row {
						g[c] += d2r * hr[c]
						dr[c] += d2r * w
					}
					gradB2[r] += d2r
				}
				// Compact the surviving layer-1 deltas (ReLU kills about
				// half), then scatter the outer product into the column-major
				// gradient tile column by column. Each g1t element receives
				// the same single d1[r]*x[c] add per sample as the row-major
				// loop did — only the (r, c) visit order changes, and every
				// element is visited at most once per sample, so batch
				// accumulation order per element is preserved exactly.
				k := 0
				for r, v := range d1 {
					if h1[r] <= 0 {
						continue
					}
					if v == 0 {
						continue
					}
					d1nzIdx[k] = int32(r)
					d1nzVal[k] = v
					gradB1[r] += v
					k++
				}
				nzIdx := d1nzIdx[:k]
				nzVal := d1nzVal[:k]
				scatterOuter(g1t, nzIdx, nzVal, x, in, h1n)
			}

			// L2 decay + Adam updates. Elementwise math is layout-blind:
			// layer 1 updates in place on the model's column-major weights,
			// layer 2 on its row-major mirror, the rest on their vectors.
			addL2(g1t, m.w1, m.cfg.L2)
			optW1.step(m.w1, g1t, m.cfg.LR)
			addL2(gradW2, w2r, m.cfg.L2)
			optW2.step(w2r, gradW2, m.cfg.LR)
			addL2(gradW3, m.w3, m.cfg.L2)
			optW3.step(m.w3, gradW3, m.cfg.LR)
			optB1.step(m.b1, gradB1, m.cfg.LR)
			optB2.step(m.b2, gradB2, m.cfg.LR)
			b3 := [1]float64{m.b3}
			optB3.step(b3[:], gradB3, m.cfg.LR)
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

// colMajorAccum adds W·x into acc against the column-major weights wt
// (in columns of len(acc), column c at wt[c*len(acc):]). Accumulator r
// receives w[r][0]*x[0] + w[r][1]*x[1] + ... strictly in ascending column
// order — a naive dot product's exact left-to-right association, so results
// are bit-identical to it — but the columns advance len(acc) independent
// dependency chains, and processing four columns per pass amortizes the
// accumulator load/store and loop overhead across four multiply-adds.
func colMajorAccum(acc, wt, x []float64, in int) {
	n := len(acc)
	c := 0
	for ; c+4 <= in; c += 4 {
		x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
		c0 := wt[(c+0)*n:][:n]
		c1 := wt[(c+1)*n:][:n]
		c2 := wt[(c+2)*n:][:n]
		c3 := wt[(c+3)*n:][:n]
		a := acc[:n]
		for r := range a {
			s := a[r] + c0[r]*x0
			s += c1[r] * x1
			s += c2[r] * x2
			s += c3[r] * x3
			a[r] = s
		}
	}
	for ; c < in; c++ {
		xc := x[c]
		col := wt[c*n:][:n]
		a := acc[:n]
		for r := range a {
			a[r] += col[r] * xc
		}
	}
}

// scatterOuter accumulates the outer product of the compacted deltas
// (nzVal at rows nzIdx) and the input x into the column-major gradient tile
// gt (in columns of width rows). Every gt element receives at most one
// d*x add per sample — the same single add the row-major loop performed —
// so batch accumulation order per element is unchanged; four input columns
// per pass amortize the index and delta loads.
func scatterOuter(gt []float64, nzIdx []int32, nzVal []float64, x []float64, in, rows int) {
	c := 0
	for ; c+4 <= in; c += 4 {
		x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
		g0 := gt[(c+0)*rows:][:rows]
		g1 := gt[(c+1)*rows:][:rows]
		g2 := gt[(c+2)*rows:][:rows]
		g3 := gt[(c+3)*rows:][:rows]
		for j, r := range nzIdx {
			v := nzVal[j]
			g0[r] += v * x0
			g1[r] += v * x1
			g2[r] += v * x2
			g3[r] += v * x3
		}
	}
	for ; c < in; c++ {
		xc := x[c]
		col := gt[c*rows:][:rows]
		for j, r := range nzIdx {
			col[r] += nzVal[j] * xc
		}
	}
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

func addL2(grads, params []float64, l2 float64) {
	if l2 == 0 {
		return
	}
	for i := range grads {
		grads[i] += l2 * params[i]
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
// out (length >= nRows) receives the error probability of each row. Rows
// advance predictBlock at a time through the column-major weights, so each
// weight load feeds a whole block of rows. The activation scratch is
// pooled, so steady-state calls allocate nothing, and many goroutines may
// score against one fitted model concurrently.
func (m *MLP) PredictInto(X []float64, nRows int, out []float64) {
	if nRows <= 0 {
		return
	}
	in, h1n, h2n := m.in, m.cfg.Hidden1, m.cfg.Hidden2
	sc := m.getScratch()
	for r0 := 0; r0 < nRows; r0 += predictBlock {
		nb := min(predictBlock, nRows-r0)
		h1 := sc.h1[:nb*h1n]
		h2 := sc.h2[:nb*h2n]
		for b := 0; b < nb; b++ {
			copy(h1[b*h1n:], m.b1)
			copy(h2[b*h2n:], m.b2)
		}
		accumRows(h1, m.w1, X[r0*in:(r0+nb)*in], nb, in)
		relu(h1)
		accumRows(h2, m.w2, h1, nb, h1n)
		relu(h2)
		for b := 0; b < nb; b++ {
			out[r0+b] = sigmoid(dotFrom(m.b3, m.w3, h2[b*h2n:(b+1)*h2n]))
		}
	}
	m.scratch.Put(sc)
}

// accumRows adds W·x into each of nb (1 or predictBlock) rows'
// accumulators: acc holds nb accumulator rows, X holds nb input rows of
// width in, and wt is W column-major.
func accumRows(acc, wt, X []float64, nb, in int) {
	if nb == predictBlock {
		blockAccum(acc, wt, X, in)
		return
	}
	colMajorAccum(acc, wt, X, in)
}

// blockAccum is colMajorAccum for two rows at once: acc holds two
// accumulator rows of width n = len(acc)/2 and X two input rows of width
// in. Both rows share each four-column weight slice, so every weight load
// feeds two rows, while each accumulator still receives its products in
// ascending column order — bit-identical to colMajorAccum row by row.
func blockAccum(acc, wt, X []float64, in int) {
	n := len(acc) / 2
	a0 := acc[:n]
	a1 := acc[n:][:n]
	x0 := X[:in]
	x1 := X[in:][:in]
	c := 0
	for ; c+4 <= in; c += 4 {
		w0 := wt[(c+0)*n:][:n]
		w1 := wt[(c+1)*n:][:n]
		w2 := wt[(c+2)*n:][:n]
		w3 := wt[(c+3)*n:][:n]
		p00, p01, p02, p03 := x0[c], x0[c+1], x0[c+2], x0[c+3]
		p10, p11, p12, p13 := x1[c], x1[c+1], x1[c+2], x1[c+3]
		for r := range a0 {
			u0, u1, u2, u3 := w0[r], w1[r], w2[r], w3[r]
			a0[r] = a0[r] + u0*p00 + u1*p01 + u2*p02 + u3*p03
			a1[r] = a1[r] + u0*p10 + u1*p11 + u2*p12 + u3*p13
		}
	}
	for ; c < in; c++ {
		w := wt[c*n:][:n]
		v0, v1 := x0[c], x1[c]
		for r, u := range w {
			a0[r] += u * v0
			a1[r] += u * v1
		}
	}
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
