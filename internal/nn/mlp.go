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
// their AVX2 bodies or their Go twins. Training may split each mini-batch
// across the caller and helper goroutines the caller lends it: by row for
// the forward and delta pass, by weight element for the gradients and
// Adam, so every element still receives the same operations in the same
// order and the trained bits do not depend on the team size, nor on a
// starved team retiring mid-run. Snapshot and FromSnapshot convert to and
// from row-major at the artifact boundary.
// Inference (PredictInto) is allocation-free in steady state,
// drawing activation scratch from an internal pool so that many goroutines
// can score against one fitted model concurrently.
package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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

// next advances the state by one step and returns that step's scalars,
// which kernel.Adam then applies to the whole tensor or, since Adam is
// elementwise, to any split of it into slices. The scalars come from
// untyped constants, so 1-beta1 is the constant-folded 0.1, not 1 - 0.9
// in float64.
func (a *adamState) next(lr, l2 float64) kernel.AdamStep {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	a.t++
	return kernel.AdamStep{
		L2: l2, LR: lr, Eps: eps,
		Beta1: beta1, OneMinusBeta1: 1 - beta1,
		Beta2: beta2, OneMinusBeta2: 1 - beta2,
		BC1: 1 - math.Pow(beta1, float64(a.t)),
		BC2: 1 - math.Pow(beta2, float64(a.t)),
	}
}

// step applies one Adam update to params, first adding the L2 decay
// l2*params to grads when l2 != 0.
func (a *adamState) step(params, grads []float64, lr, l2 float64) {
	k := a.next(lr, l2)
	kernel.Adam(params, grads, a.m, a.v, &k)
}

// Train fits the MLP on a flat row-major feature tile and binary labels y
// (1 = error): X holds nRows vectors of the model's input dimension back
// to back — the layout feature.FeaturesInto and the engine's
// training-matrix stage produce — so training consumes the tile directly
// with no per-row slice headers. It returns the final epoch's mean
// cross-entropy loss. Adam updates apply directly to the flat weight
// buffers.
//
// helpers is the number of goroutines, besides the caller's, that may
// share each mini-batch; Train clamps it to [0, MaxHelpers(nRows)], and 0
// trains on the caller alone. The trained bits do not depend on it.
//
// The context is checked once per epoch; a canceled context aborts training
// with the context's error. Sample validation is fused into the first
// epoch's pass instead of running as a separate O(n·dim) sweep: a
// non-finite feature or label aborts training with an error, as does a
// non-finite epoch loss (divergence, however caused), rather than training
// onward through NaNs. A failed Train never marks the model trained; its
// partially updated weights are discarded by every caller along with the
// error. Every helper has exited by the time Train returns.
func (m *MLP) Train(ctx context.Context, X []float64, nRows int, y []float64, helpers int) (float64, error) {
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
	return m.train(ctx, X, nRows, y, max(0, min(helpers, m.MaxHelpers(nRows))))
}

// maxTeamHelpers caps the team at the size whose speed-up has been
// measured: the caller plus one helper. Larger teams train the same bits,
// but whether their finer split of a batch outruns their longer barrier
// waits has not been measured.
const maxTeamHelpers = 1

// MaxHelpers returns how many helpers Train can put to use on nRows
// samples: at most maxTeamHelpers, and within that teamCap's bound.
func (m *MLP) MaxHelpers(nRows int) int {
	return min(maxTeamHelpers, m.teamCap(runtime.GOMAXPROCS(0), nRows))
}

// teamCap bounds the team on procs processors: at most procs-1 helpers,
// and few enough that every worker owns at least one row of a full
// mini-batch and one input column of layer 1.
func (m *MLP) teamCap(procs, nRows int) int {
	return max(0, min(procs, min(m.cfg.BatchSize, nRows), m.in)-1)
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
// flat tile X of n samples, run by a team of the caller plus helpers
// goroutines (see team). Sample validation happens on first use inside
// epoch 0 rather than as an up-front sweep. It stays a separate function
// because default.pgo keys its hot call sites, here and in its two phase
// closures, by function name and line offset.
//
// Each mini-batch runs in two phases, and neither moves a bit whatever the
// team size: the weights are frozen for the whole batch, every gradient
// element receives the same adds in the same order as on one goroutine,
// and Adam is elementwise, with one kernel.AdamStep per tensor per batch.
//
//  1. Row phase: each worker takes a contiguous range of the batch's rows
//     and writes each row's activations, loss, output delta and masked
//     hidden deltas into that row's slots. In epoch 0 it stops at the
//     first invalid row of its range, so the first error in worker order
//     is the first in batch order.
//  2. Gradient phase: work splits by element, never by row. Each worker
//     owns a range of layer 1's input columns and a range of layer 2's
//     rows; it accumulates their gradients over the batch's rows in order
//     and applies Adam to them. Worker 0 also sums the loss and the small
//     gradients (output layer and biases) in batch order and steps them.
func (m *MLP) train(ctx context.Context, X []float64, n int, y []float64, helpers int) (float64, error) {
	h1n, h2n := m.cfg.Hidden1, m.cfg.Hidden2
	in, batch := m.in, m.cfg.BatchSize
	rng := rand.New(rand.NewSource(m.cfg.Seed + 7))
	l2, lr := m.cfg.L2, m.cfg.LR

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

	// Per-row slots of the current batch: row k's activations h1|h2 at
	// act[k*wd:(k+1)*wd] and its deltas d1|d2 at the same place in delta.
	wd := h1n + h2n
	act := make([]float64, batch*wd)
	delta := make([]float64, batch*wd)
	loss := make([]float64, batch)
	dOut := make([]float64, batch)

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
	// and each of its rows takes one gradient row. Each row range is copied
	// into the column-major m.w2 after its Adam step for the next forward
	// pass.
	w2r := make([]float64, h2n*h1n)
	g1t := make([]float64, in*h1n)
	transpose(w2r, m.w2, h1n, h2n, 0, h1n)

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}

	tm := newTeam(helpers)
	defer func() { tm.stop() }()
	bad := make([]error, tm.workers) // each worker's first invalid row in epoch 0
	var (
		epoch, start, end int
		epochLoss         float64
		stepW1, stepW2    kernel.AdamStep
	)

	rowPhase := func(w int) {
		lo, hi := share(end-start, tm.workers, w)
		bs := float64(end - start)
		for k := lo; k < hi; k++ {
			i := idx[start+k]
			x := X[i*in : (i+1)*in]
			if epoch == 0 {
				if err := validateSample(x, y[i], i); err != nil {
					bad[w] = err
					return
				}
			}
			a, d := act[k*wd:(k+1)*wd], delta[k*wd:(k+1)*wd]
			h1, h2, d1, d2 := a[:h1n], a[h1n:], d[:h1n], d[h1n:]
			p := m.forward(x, h1, h2)

			t := y[i]
			loss[k] = bceLoss(t, p)
			// dL/dlogit for sigmoid + BCE.
			dk := (p - t) / bs
			dOut[k] = dk
			for j, wj := range m.w3 {
				d2[j] = dk * wj
				if h2[j] <= 0 {
					d2[j] = 0
				}
			}
			// d1 = W2ᵀ·d2 over every row of W2. A row with d2[r] = ±0
			// adds w*±0 = ±0 (the weights are finite) to each d1
			// element, which starts at +0 and so is never −0: the bits
			// are those of skipping the row. The deltas of units the
			// ReLU killed are stored as exact +0.
			zero(d1)
			kernel.Accum(d1, w2r, d2)
			for r := range d1 {
				if h1[r] <= 0 {
					d1[r] = 0
				}
			}
		}
	}

	blockCols := max(1, 2048/h1n) // 16 KB of layer-1 gradient
	gradPhase := func(w int) {
		rows := end - start
		// Layer 1's gradient is one dense rank-1 update per row, restricted
		// to this worker's input columns [c0, c1). The dead units' +0
		// deltas change no bit: g1t starts at +0 each batch, a
		// round-to-nearest sum with a +0 operand is never −0, and x is
		// finite (epoch 0 rejected it otherwise), so each 0*x[c] = ±0
		// added leaves the sum as it was. The columns go in blocks of
		// blockCols, each taking every row before Adam, so a block's
		// gradient stays in L1 cache across the batch.
		c0, c1 := share(in, tm.workers, w)
		for b0 := c0; b0 < c1; b0 += blockCols {
			b1 := min(b0+blockCols, c1)
			g := g1t[b0*h1n : b1*h1n]
			zero(g)
			for k := 0; k < rows; k++ {
				i := idx[start+k]
				kernel.Rank1(g, delta[k*wd:k*wd+h1n], X[i*in+b0:i*in+b1])
			}
			kernel.Adam(m.w1[b0*h1n:b1*h1n], g, optW1.m[b0*h1n:b1*h1n], optW1.v[b0*h1n:b1*h1n], &stepW1)
		}

		// Layer 2's gradient rows [r0, r1), one row per nonzero delta. The
		// rows keep the skip, since h1 is not validated and an infinite
		// h1 times 0 would be NaN.
		r0, r1 := share(h2n, tm.workers, w)
		g := gradW2[r0*h1n : r1*h1n]
		zero(g)
		for k := 0; k < rows; k++ {
			h1, d2 := act[k*wd:k*wd+h1n], delta[k*wd+h1n:(k+1)*wd]
			for r := r0; r < r1; r++ {
				if d2[r] != 0 {
					kernel.Rank1(gradW2[r*h1n:(r+1)*h1n], h1, d2[r:r+1])
				}
			}
		}
		kernel.Adam(w2r[r0*h1n:r1*h1n], g, optW2.m[r0*h1n:r1*h1n], optW2.v[r0*h1n:r1*h1n], &stepW2)
		transpose(m.w2, w2r, h2n, h1n, r0, r1)

		if w != 0 {
			return
		}
		zero(gradW3)
		zero(gradB1)
		zero(gradB2)
		gradB3[0] = 0
		for k := 0; k < rows; k++ {
			h2, d := act[k*wd+h1n:(k+1)*wd], delta[k*wd:(k+1)*wd]
			epochLoss += loss[k]
			for j, v := range h2 {
				gradW3[j] += dOut[k] * v
			}
			gradB3[0] += dOut[k]
			for r, v := range d[h1n:] {
				if v != 0 {
					gradB2[r] += v
				}
			}
			// The dead units' +0 deltas leave gradB1 as it was, as in g1t.
			for r, v := range d[:h1n] {
				gradB1[r] += v
			}
		}
		optW3.step(m.w3, gradW3, lr, l2)
		optB1.step(m.b1, gradB1, lr, 0)
		optB2.step(m.b2, gradB2, lr, 0)
		b3 := [1]float64{m.b3}
		optB3.step(b3[:], gradB3, lr, 0)
		m.b3 = b3[0]
	}

	var lastLoss float64
	for epoch = 0; epoch < m.cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("nn: training canceled at epoch %d: %w", epoch, err)
		}
		t0 := time.Now()
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss = 0
		for start = 0; start < n; start += batch {
			end = min(start+batch, n)
			tm.run(rowPhase)
			for _, err := range bad {
				if err != nil {
					return 0, err
				}
			}
			stepW1, stepW2 = optW1.next(lr, l2), optW2.next(lr, l2)
			tm.run(gradPhase)
		}
		lastLoss = epochLoss / float64(n)
		if math.IsNaN(lastLoss) || math.IsInf(lastLoss, 0) {
			return 0, fmt.Errorf("nn: non-finite training loss %v at epoch %d", lastLoss, epoch)
		}
		if tm.starved(time.Since(t0)) {
			tm.stop()
			tm = newTeam(0)
		}
	}
	m.trained = true
	return lastLoss, nil
}

// share returns worker w's contiguous range [lo, hi) of n items split
// across workers; the ranges differ in length by at most one.
func share(n, workers, w int) (int, int) {
	return n * w / workers, n * (w + 1) / workers
}

// team runs the phases of train on the calling goroutine (worker 0) plus
// workers-1 helper goroutines, each calling the posted phase body with its
// own worker index. The helpers are started once per train call and exit
// in stop; between phases they wait on atomic counters, spinning briefly
// and then yielding, so a phase hand-off spawns no goroutine and touches
// no channel. With no helpers, run is a plain call on the caller.
//
// The hand-offs pay only while every member has a processor of its own.
// On a machine busier than the lent helpers assumed (other jobs, or a
// pool with more workers than processors), a descheduled helper holds up
// every phase; train then retires the team after the epoch (see starved)
// and trains on alone, with the same bits.
type team struct {
	workers int
	body    func(w int)   // the posted phase; rewritten only after every helper finished the last
	posted  atomic.Uint64 // phases posted, plus one for stop
	done    atomic.Uint64 // phase bodies the helpers have finished
	quit    atomic.Bool
	wg      sync.WaitGroup
	stalled time.Duration // the caller's waits past its spin budget since the last starved call
}

func newTeam(helpers int) *team {
	t := &team{workers: helpers + 1}
	t.wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		go t.help(w)
	}
	return t
}

func (t *team) help(w int) {
	defer t.wg.Done()
	for seen := uint64(1); ; seen++ {
		await(&t.posted, seen)
		if t.quit.Load() {
			return
		}
		t.body(w)
		t.done.Add(1)
	}
}

// run calls body on every worker and returns once all have returned.
func (t *team) run(body func(w int)) {
	t.body = body
	n := t.posted.Add(1)
	body(0)
	t.stalled += await(&t.done, n*uint64(t.workers-1))
}

// starved reports whether the caller spent over a quarter of the last
// epoch, which took d, waiting on helpers past its spin budget, and resets
// the count. Helpers that each have a processor keep such waits to a few
// percent of an epoch; helpers sharing processors with other work push
// them near half, where the team is no faster than the caller alone.
func (t *team) starved(d time.Duration) bool {
	s := t.stalled
	t.stalled = 0
	return t.workers > 1 && 4*s > d
}

// stop releases the helpers and returns once every one has exited.
func (t *team) stop() {
	t.quit.Store(true)
	t.posted.Add(1)
	t.wg.Wait()
}

// await returns once c reaches want, spinning for the first awaitSpins
// checks and yielding the processor between later ones. It returns how
// long it yielded for; a wait that ends within the spins reads no clock.
func await(c *atomic.Uint64, want uint64) time.Duration {
	const awaitSpins = 256
	var yielded time.Time
	for spin := 0; c.Load() < want; spin++ {
		if spin >= awaitSpins {
			if spin == awaitSpins {
				yielded = time.Now()
			}
			runtime.Gosched()
		}
	}
	if yielded.IsZero() {
		return 0
	}
	return time.Since(yielded)
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

// transpose fills rows [r0, r1) of src (a flat rows x cols matrix) into
// their places in dst (a flat cols x rows matrix, its transpose),
// converting between the row-major and column-major forms of one matrix.
// Values are copied verbatim.
func transpose(dst, src []float64, rows, cols, r0, r1 int) {
	for r := r0; r < r1; r++ {
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
