package zeroed

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/table"
)

// StreamScorer drives long-lived streaming detection over one model slot:
// chunks of raw rows are scored against the current model (through its warm
// score cache), every cell value is folded into per-model drift gauges
// against the model's fit-time frequency snapshot, and the scored rows
// accumulate into a dictionary-bound dataset that a drift-triggered refit
// trains a successor on.
//
// Chunking invariance: each chunk is scored by Model.ScoreRowsOn, which
// binds its own scoring dataset per call, so a verdict depends only on the
// model and the row's cell values — the same byte stream split at any chunk
// boundaries yields the identical verdict sequence. Drift observation is
// per cell value, equally chunk-invariant.
//
// Concurrency: ScoreChunk is safe for concurrent callers. Scoring runs
// outside the scorer's lock (the model is safe for concurrent scoring);
// drift observation and stream accumulation serialize under it. Refit takes
// its table.Snapshot of the accumulator under the same lock, so the view
// sees whole rows only, and then clones and fits it outside the lock while
// appends carry on past the view's fixed lengths.
type StreamScorer struct {
	cfg StreamConfig

	mu      sync.Mutex
	m       *Model
	version int
	drift   *stats.DriftTracker
	accum   *table.Dataset

	// Refit failure containment (guarded by mu): consecutive failed refits
	// push the next attempt out exponentially; enough of them trip the
	// per-model circuit breaker. Either way the last good model keeps
	// serving — a failing refit must never hot-loop the fit pipeline.
	refitFails int
	retryAt    time.Time
	broken     bool

	refitting atomic.Bool
}

// StreamConfig tunes one streaming scorer.
type StreamConfig struct {
	// DriftThreshold trips a refit when either drift gauge (unseen-value
	// rate or distribution shift) exceeds it. <= 0 disables tripping; the
	// gauges still accumulate.
	DriftThreshold float64
	// DriftMinRows is the minimum accumulated stream size before the
	// threshold may trip (default 256): early chunks are too small to
	// estimate a distribution.
	DriftMinRows int
	// MaxAccumRows bounds the accumulated refit dataset (default 100000).
	// Beyond it rows keep scoring and keep moving the gauges, but are no
	// longer retained for refitting.
	MaxAccumRows int
	// RefitBackoffBase is the delay before retrying after the first failed
	// refit (default 1s); each consecutive failure doubles it.
	RefitBackoffBase time.Duration
	// RefitBackoffMax caps the refit backoff (default 5m).
	RefitBackoffMax time.Duration
	// RefitBreakerAfter trips the per-model circuit breaker after this many
	// consecutive refit failures (default 5): no further refits trip until a
	// successful Install resets it. Negative disables the breaker.
	RefitBreakerAfter int
	// Clock overrides time.Now for backoff bookkeeping (tests).
	Clock func() time.Time
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.DriftMinRows <= 0 {
		c.DriftMinRows = 256
	}
	if c.MaxAccumRows <= 0 {
		c.MaxAccumRows = 100_000
	}
	if c.RefitBackoffBase <= 0 {
		c.RefitBackoffBase = time.Second
	}
	if c.RefitBackoffMax <= 0 {
		c.RefitBackoffMax = 5 * time.Minute
	}
	if c.RefitBreakerAfter == 0 {
		c.RefitBreakerAfter = 5
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// RefitHealth is the failure-containment state of one stream's refit loop,
// exported for gauges and admin introspection.
type RefitHealth struct {
	// ConsecutiveFailures counts refit failures since the last successful
	// Install.
	ConsecutiveFailures int
	// BackoffUntil is the time before which drift will not trip another
	// refit (zero when no backoff is pending).
	BackoffUntil time.Time
	// BreakerOpen reports a tripped circuit breaker: refits stay disabled
	// until a successful Install (e.g. an operator-driven manual refit).
	BreakerOpen bool
}

// ChunkStatus reports the stream state after one scored chunk.
type ChunkStatus struct {
	// Version is the model version the chunk was scored by.
	Version int
	// Drift is the gauge reading after folding the chunk in.
	Drift stats.DriftGauges
	// ShouldRefit is set when the drift threshold tripped and no refit is
	// already running; the caller decides whether (and where) to run it.
	ShouldRefit bool
}

// NewStreamScorer starts a stream against a fitted model. The version is
// taken from the model's lineage. Degenerate models cannot score unseen
// rows and are rejected.
func NewStreamScorer(m *Model, cfg StreamConfig) (*StreamScorer, error) {
	if m == nil {
		return nil, fmt.Errorf("zeroed: nil model")
	}
	if m.Degenerate() {
		return nil, fmt.Errorf("zeroed: degenerate model cannot drive a stream")
	}
	ss := &StreamScorer{cfg: cfg.withDefaults()}
	if err := ss.install(m); err != nil {
		return nil, err
	}
	return ss, nil
}

// install binds the scorer to a model: fresh drift tracker against the
// model's fit-time frequency snapshot (its reference is the model's
// never-appended proto), fresh accumulator seeded with the model's
// dictionaries. Caller holds mu (or is the constructor).
func (ss *StreamScorer) install(m *Model) error {
	drift, err := stats.NewDriftTracker(m.ext.Snapshot().Freq, m.proto)
	if err != nil {
		return err
	}
	ss.m = m
	ss.version = m.Lineage().Version
	ss.drift = drift
	ss.accum = m.proto.Derive("stream")
	return nil
}

// Model returns the current model and its version.
func (ss *StreamScorer) Model() (*Model, int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.m, ss.version
}

// Gauges returns the current drift reading and the model version it is
// accumulating against.
func (ss *StreamScorer) Gauges() (stats.DriftGauges, int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.drift.Gauges(), ss.version
}

// ScoreChunk scores one chunk of raw rows (in the model's attribute order)
// against the current model, then folds the rows into the drift gauges and
// the refit accumulator. The verdicts are computed before the fold, so a
// concurrent hot-swap never tears a chunk: every row of the chunk is scored
// by the one model captured at entry, reported in the status version.
// Scoring runs on p; a nil p means a private pool of the model's Workers.
func (ss *StreamScorer) ScoreChunk(ctx context.Context, p *Pool, rows [][]string) (*Result, ChunkStatus, error) {
	ss.mu.Lock()
	m, version := ss.m, ss.version
	ss.mu.Unlock()

	ctx, span := obs.Start(ctx, "stream.chunk")
	defer span.End()
	span.SetInt("rows", int64(len(rows)))
	span.SetInt("version", int64(version))

	res, err := m.ScoreRowsOn(ctx, p, rows)
	if err != nil {
		return nil, ChunkStatus{Version: version}, err
	}

	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, r := range rows {
		// Arity was validated by scoring; a mismatch here is unreachable.
		if err := ss.drift.ObserveRow(r); err != nil {
			return nil, ChunkStatus{Version: version}, err
		}
		if ss.accum.NumRows() < ss.cfg.MaxAccumRows {
			ss.accum.MustAppendRow(r)
		}
	}
	st := ChunkStatus{Version: ss.version, Drift: ss.drift.Gauges()}
	if st.Drift.Trip(ss.cfg.DriftThreshold, ss.cfg.DriftMinRows) &&
		!ss.refitting.Load() && ss.refitAllowedLocked() {
		st.ShouldRefit = true
	}
	return res, st, nil
}

// ScoreSource drains a table.RowSource through ScoreChunk: rows arrive in
// chunks of chunkRows (default 256 when <= 0), each chunk is scored against
// the current model, and emit — when non-nil — runs once per scored chunk
// with the chunk's first row index, its result, and the post-chunk status.
// emit may Refit/Install synchronously between chunks (the CLI's in-place
// refit does exactly that: the next chunk scores on the successor); a
// non-nil emit error aborts the drain. Verdicts stay chunk-invariant for
// any chunkRows. Returns the total rows scored and the last chunk status.
func (ss *StreamScorer) ScoreSource(ctx context.Context, p *Pool, src table.RowSource, chunkRows int, emit func(start int, res *Result, st ChunkStatus) error) (int, ChunkStatus, error) {
	if chunkRows <= 0 {
		chunkRows = 256
	}
	rows := 0
	var last ChunkStatus
	for {
		chunk, rerr := src.Next(chunkRows)
		if len(chunk) > 0 {
			res, st, err := ss.ScoreChunk(ctx, p, chunk)
			if err != nil {
				return rows, last, err
			}
			last = st
			if emit != nil {
				if err := emit(rows, res, st); err != nil {
					return rows, last, err
				}
			}
			rows += len(chunk)
		}
		if rerr == io.EOF {
			return rows, last, nil
		}
		if rerr != nil {
			return rows, last, rerr
		}
	}
}

// refitAllowedLocked reports whether failure containment permits another
// refit attempt right now. Caller holds mu.
func (ss *StreamScorer) refitAllowedLocked() bool {
	if ss.broken {
		return false
	}
	return ss.retryAt.IsZero() || !ss.cfg.Clock().Before(ss.retryAt)
}

// RefitHealth returns the current failure-containment state.
func (ss *StreamScorer) RefitHealth() RefitHealth {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return RefitHealth{
		ConsecutiveFailures: ss.refitFails,
		BackoffUntil:        ss.retryAt,
		BreakerOpen:         ss.broken,
	}
}

// BeginRefit claims the single refit slot. It returns false when a refit is
// already in flight; the winner must end with Install or AbortRefit.
func (ss *StreamScorer) BeginRefit() bool {
	return ss.refitting.CompareAndSwap(false, true)
}

// AbortRefit releases the refit slot without swapping, after a failed fit.
// The old model keeps serving and the gauges keep accumulating, but the
// failure is recorded: the next trip is pushed out by exponential backoff
// (RefitBackoffBase doubling up to RefitBackoffMax), and RefitBreakerAfter
// consecutive failures open the circuit breaker until the next successful
// Install.
func (ss *StreamScorer) AbortRefit() {
	ss.mu.Lock()
	ss.refitFails++
	backoff := ss.cfg.RefitBackoffBase
	for i := 1; i < ss.refitFails; i++ {
		backoff *= 2
		if backoff >= ss.cfg.RefitBackoffMax {
			backoff = ss.cfg.RefitBackoffMax
			break
		}
	}
	ss.retryAt = ss.cfg.Clock().Add(backoff)
	if ss.cfg.RefitBreakerAfter > 0 && ss.refitFails >= ss.cfg.RefitBreakerAfter {
		ss.broken = true
	}
	ss.mu.Unlock()
	ss.refitting.Store(false)
}

// Refit trains a successor model on the accumulated stream. It runs from
// the refit goroutine: the rows are taken from a snapshot of the
// accumulator made under the scorer's lock (streaming appends keep going
// while the fit runs), which FitOn only reads.
//
// The successor reuses the prior model's configuration and seed, and —
// because the accumulator is seeded with the prior dictionaries — its
// dictionaries extend the prior model's. Fitting is deterministic given the
// accumulated dataset: an independent FitOn over the same accumulated rows
// with the same dictionary seeding produces a bit-identical successor
// (pinned by TestStreamRefitMatchesFromScratchFit).
//
// The fit runs on p; a nil p means a private pool of the model's Workers.
// Refit does not swap anything: the caller persists/installs the returned
// model via Install, so in-flight chunks keep scoring on the old model
// until the swap is complete.
func (ss *StreamScorer) Refit(ctx context.Context, p *Pool) (*Model, error) {
	if !ss.refitting.Load() {
		return nil, fmt.Errorf("zeroed: Refit without BeginRefit")
	}
	ss.mu.Lock()
	prior, version := ss.m, ss.version
	snap := ss.accum.Snapshot()
	ss.mu.Unlock()

	if snap.NumRows() == 0 {
		return nil, fmt.Errorf("zeroed: no accumulated rows to refit on")
	}
	snap.Name = "refit"
	m2, err := New(prior.cfg).FitOn(ctx, p, snap)
	if err != nil {
		return nil, fmt.Errorf("zeroed: refit failed: %w", err)
	}
	if m2.Degenerate() {
		return nil, fmt.Errorf("zeroed: refit produced a degenerate model (accumulated stream is single-class); keeping the old model")
	}
	m2.SetLineage(Lineage{Version: version + 1, RefitRows: snap.NumRows()})
	return m2, nil
}

// Install hot-swaps the successor in: subsequent chunks score on it, the
// drift gauges and the accumulator reset against its dictionaries, and the
// refit slot reopens. In-flight ScoreChunk calls that captured the old
// model finish on it untouched — the swap replaces the pointer, it never
// mutates the old model.
// A successful install also resets refit-failure containment: the breaker
// closes and any pending backoff clears.
func (ss *StreamScorer) Install(m *Model) error {
	if m == nil || m.Degenerate() {
		return fmt.Errorf("zeroed: cannot install a nil or degenerate model")
	}
	ss.mu.Lock()
	err := ss.install(m)
	if err == nil {
		ss.refitFails = 0
		ss.retryAt = time.Time{}
		ss.broken = false
	}
	ss.mu.Unlock()
	ss.refitting.Store(false)
	return err
}
