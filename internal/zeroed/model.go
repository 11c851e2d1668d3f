package zeroed

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/feature"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/table"
)

// Model is a fitted ZeroED detector: everything the cheap ScoreOn phase
// needs, detached from the expensive FitOn phase that produced it — the
// trained MLP, the feature extractor's per-value-ID memo state, the induced
// (refined) criteria, the column dictionaries and frequency statistics of
// the fitting data, and the configuration and seed of the run.
//
// Contract: DetectOn(ds) ≡ ScoreOn(FitOn(ds), ds) bit-for-bit (verdicts and
// float64 score bits, for any worker count), and a model that
// round-trips through the internal/model artifact codec scores
// bit-identically to the in-memory original. New rows are scored by
// interning their values into the model's dictionaries: values seen during
// fitting resolve to their fit-time IDs and replay the memoized feature
// path, unseen values take the extractor's defined cold path (zero
// frequency, on-the-fly embedding, by-string criteria evaluation).
//
// A Model is safe for concurrent scoring: every scoring call binds its own
// scoring dataset and the shared memo tables are read-only.
type Model struct {
	cfg     Config
	attrs   []string
	dicts   [][]string     // per-column intern pools at fit time, capacity-clamped
	proto   *table.Dataset // rows-free dataset over dicts, indexed once; see bind
	fitRows int
	ext     *feature.Extractor
	mlp     *nn.MLP // nil on a degenerate fit (single-class training data)
	// fallback carries the propagated labels of a degenerate fit; scoring
	// applies them positionally, so they are only meaningful when scoring
	// the fitting dataset itself.
	fallback []FallbackLabel
	info     FitInfo
	lineage  Lineage

	// cacheOnce/cache is the model-lifetime warm score cache: value-ID
	// tuples over feature.DepCols are stable across every dataset bound to
	// the model's dictionaries, so scores computed in one scoring call replay
	// bit-identically in later ones. Built lazily on first scoring use.
	cacheOnce sync.Once
	cache     *sharedScoreCache
}

// FitInfo is the diagnostic record of the fit that produced a model.
type FitInfo struct {
	SampledCells  int
	TrainingCells int
	AugmentedErrs int
	CriteriaCount int
	Usage         llm.Usage
	FitRuntime    time.Duration
	// Stages is the per-stage wall time and allocation breakdown of the fit
	// (extractor, criteria, sample_label, traindata, matrix, train), in
	// pipeline order. Diagnostics of the fitting process, not scoring state:
	// the artifact codec deliberately does not serialize it, so a restored
	// model reports no stage breakdown.
	Stages []StageTiming
}

// StageTiming records the wall-clock duration and allocation volume of one
// fit pipeline stage. AllocBytes is the runtime's cumulative-allocation
// delta across the stage (bytes allocated, not bytes retained). Both are
// the numbers the stage's fit.<stage> span records when tracing is on.
type StageTiming struct {
	Name       string
	Seconds    float64
	AllocBytes uint64
}

// FallbackLabel is one propagated training label of a degenerate fit
// (single-class training data, no trainable detector).
type FallbackLabel struct {
	Row, Col int
	IsErr    bool
}

// Lineage records where a model sits in a refit chain. A freshly fitted
// model is version 1 with no refit provenance; a drift-triggered successor
// carries its predecessor's version plus one and the row count of the
// accumulated stream it was refitted on.
type Lineage struct {
	// Version is 1-based; 0 (a pre-lineage artifact) reads as version 1.
	Version int
	// RefitRows is the accumulated-stream row count a refit trained on;
	// 0 for an original fit.
	RefitRows int
}

// Attrs returns the schema the model was fitted on.
func (m *Model) Attrs() []string { return m.attrs }

// FitRows returns the row count of the fitting dataset.
func (m *Model) FitRows() int { return m.fitRows }

// Config returns the effective configuration of the fit.
func (m *Model) Config() Config { return m.cfg }

// Info returns the fit diagnostics.
func (m *Model) Info() FitInfo { return m.info }

// Degenerate reports whether the fit found only one label class and the
// model therefore scores by replaying propagated labels instead of a
// trained detector.
func (m *Model) Degenerate() bool { return m.mlp == nil }

// Lineage returns the model's position in its refit chain. Models fitted
// before lineage existed (or restored from version-1 artifacts) report
// version 1.
func (m *Model) Lineage() Lineage {
	l := m.lineage
	if l.Version <= 0 {
		l.Version = 1
	}
	return l
}

// SetLineage stamps the refit provenance onto a model, which the streaming
// refit path does before persisting a successor artifact. It does not
// affect scoring.
func (m *Model) SetLineage(l Lineage) { m.lineage = l }

// SetWorkers overrides the worker count used by subsequent scoring calls —
// a scheduling knob only; results are bit-identical for any setting. Zero
// or negative means GOMAXPROCS, mirroring Config.
func (m *Model) SetWorkers(n int) {
	c := m.cfg
	c.Workers = n
	m.cfg = c.withDefaults()
}

// bind creates the empty scoring dataset seeded with the model's
// dictionaries, so appended rows intern seen values to their fit-time IDs.
// It shares the proto's frozen index, so it costs O(columns).
func (m *Model) bind() *table.Dataset {
	return m.proto.Derive("score")
}

// checkSchema verifies that a dataset's attributes match the fitted schema
// exactly (same names, same order).
func (m *Model) checkSchema(attrs []string) error {
	if len(attrs) != len(m.attrs) {
		return fmt.Errorf("zeroed: dataset has %d attributes, model was fitted on %d", len(attrs), len(m.attrs))
	}
	for j, a := range attrs {
		if a != m.attrs[j] {
			return fmt.Errorf("zeroed: attribute %d is %q, model was fitted on %q", j, a, m.attrs[j])
		}
	}
	return nil
}

// ScoreOn runs the cheap phase on a dataset with the model's schema, on
// pool p (nil: a private pool of the model's Workers): every cell is
// featurized against the model's memo state and scored by the fitted
// detector, with no criteria induction, sampling, labeling, or training.
// The returned Result carries Pred, Scores, and the scoring Runtime; fit
// diagnostics live in Info. The context is checked per scoring shard unit
// and every few hundred rows within a shard.
//
// The dataset's cells are re-interned against the model's dictionaries and
// the bound copy is scored. For the fitting dataset this reproduces the
// fit-time value IDs exactly (the pools were captured from it), which is
// what makes DetectOn ≡ FitOn + ScoreOn bit-identical.
func (m *Model) ScoreOn(ctx context.Context, p *Pool, d *table.Dataset) (*Result, error) {
	if err := m.checkSchema(d.Attrs); err != nil {
		return nil, err
	}
	sd := m.bind()
	_, bindSpan := obs.Start(ctx, "score.bind")
	row := make([]string, d.NumCols())
	for i := 0; i < d.NumRows(); i++ {
		for j := range row {
			row[j] = d.Value(i, j)
		}
		sd.MustAppendRow(row)
	}
	bindSpan.End()
	return m.scoreBound(ctx, p.orNew(m.cfg.Workers), sd)
}

// ScoreRowsOn scores raw tuples (in the model's attribute order) on pool p
// (nil: a private pool of the model's Workers) without an intermediate
// dataset: rows are interned directly into a dataset bound to the model's
// dictionaries. A row whose arity does not match the schema is rejected.
func (m *Model) ScoreRowsOn(ctx context.Context, p *Pool, rows [][]string) (*Result, error) {
	sd := m.bind()
	for i, r := range rows {
		if err := sd.AppendRow(r); err != nil {
			return nil, fmt.Errorf("zeroed: row %d: %w", i, err)
		}
	}
	return m.scoreBound(ctx, p.orNew(m.cfg.Workers), sd)
}

// scoreBound scores every cell of a dataset already bound to the model's
// dictionaries. Contiguous row shards run as independent units on the
// pool, each with its own fused shardScorer over the shared rebound
// extractor and fitted MLP, writing disjoint row ranges — bit-identical for
// every worker and shard count.
func (m *Model) scoreBound(ctx context.Context, pool *Pool, sd *table.Dataset) (*Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	n, cols := sd.NumRows(), sd.NumCols()
	if n == 0 || cols == 0 {
		return nil, fmt.Errorf("zeroed: empty dataset")
	}
	ctx, scoreSpan := obs.Start(ctx, "score")
	defer scoreSpan.End()
	scoreSpan.SetInt("rows", int64(n))
	scoreSpan.SetInt("cols", int64(cols))
	pred := newMask(sd)
	scores := newMatrix(n, cols)
	if m.mlp != nil {
		m.cacheOnce.Do(func() { m.cache = newSharedScoreCache(m.dicts) })
		scoreCells(ctx, pool, m.ext.Rebind(sd), m.mlp, sd, m.cfg.Threshold,
			m.cfg.shardCount(n), pred, scores, m.cache)
	} else {
		// Degenerate fit: replay the propagated labels. They are positional
		// in the fitting dataset; rows beyond it carry no evidence and stay
		// unflagged.
		for _, fl := range m.fallback {
			if fl.Row >= 0 && fl.Row < n && fl.Col >= 0 && fl.Col < cols {
				pred[fl.Row][fl.Col] = fl.IsErr
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("zeroed: scoring canceled: %w", err)
	}
	return &Result{Pred: pred, Scores: scores, Runtime: time.Since(start)}, nil
}

// scoreCells runs the scoring pass over every cell of d, cut into the given
// number of row shards, into the shared pred/scores matrices. Shared by
// DetectOn's fused fit-then-score and by standalone ScoreOn/ScoreRowsOn
// calls; shared is the model-lifetime warm cache spanning shards and calls.
func scoreCells(ctx context.Context, pool *Pool, ext *feature.Extractor, mlp *nn.MLP,
	d *table.Dataset, threshold float64, nshards int, pred [][]bool, scores [][]float64,
	shared *sharedScoreCache) {
	// depCols[j] is the value-ID tuple that keys column j's dedup cache;
	// derived once per scoring pass, after criteria refinement has settled.
	depCols := make([][]int, d.NumCols())
	for j := range depCols {
		depCols[j] = ext.DepCols(j)
	}
	shards := shardRanges(d.NumRows(), nshards)
	pool.forN(len(shards), func(s int) {
		if ctx.Err() != nil {
			return
		}
		_, span := obs.Start(ctx, "score.shard")
		span.SetInt("lo", int64(shards[s].lo))
		span.SetInt("hi", int64(shards[s].hi))
		sc := newShardScorer(ext, mlp, d, depCols, threshold, scores, pred, shared)
		sc.scoreRows(ctx, shards[s].lo, shards[s].hi)
		span.End()
	})
}

// ModelState is the fully exported form of a Model, the unit the
// internal/model artifact codec serializes. State and ModelFromState are
// inverses up to memo-table coverage: a restored model's per-value tables
// span the full artifact dictionaries where the original's spanned its
// construction-time prefix, and both compute identical per-value
// quantities, so scoring is bit-identical.
type ModelState struct {
	Cfg      Config
	Attrs    []string
	Dicts    [][]string
	FitRows  int
	Feature  *feature.Snapshot
	Net      *nn.Snapshot // nil on a degenerate fit
	Fallback []FallbackLabel
	Info     FitInfo
	Lineage  Lineage
}

// State captures the model's complete serializable state. Dictionaries and
// criteria are shared (they are immutable); numeric tables are copied.
func (m *Model) State() *ModelState {
	st := &ModelState{
		Cfg:      m.cfg,
		Attrs:    append([]string(nil), m.attrs...),
		Dicts:    m.dicts,
		FitRows:  m.fitRows,
		Feature:  m.ext.Snapshot(),
		Fallback: append([]FallbackLabel(nil), m.fallback...),
		Info:     m.info,
		Lineage:  m.Lineage(),
	}
	if m.mlp != nil {
		st.Net = m.mlp.Snapshot()
	}
	return st
}

// ModelFromState reconstructs a scoring-ready model, validating every
// cross-component invariant — a corrupt or adversarial state surfaces as an
// error here, never as a panic on the scoring hot path.
func ModelFromState(st *ModelState) (*Model, error) {
	if st == nil {
		return nil, fmt.Errorf("zeroed: nil model state")
	}
	if len(st.Attrs) == 0 {
		return nil, fmt.Errorf("zeroed: model state has no attributes")
	}
	if st.FitRows <= 0 {
		return nil, fmt.Errorf("zeroed: model state has non-positive fit row count %d", st.FitRows)
	}
	cfg := st.Cfg
	if math.IsNaN(cfg.Threshold) || math.IsInf(cfg.Threshold, 0) || cfg.Threshold < 0 || cfg.Threshold >= 1 {
		return nil, fmt.Errorf("zeroed: model state threshold %v out of range [0, 1)", cfg.Threshold)
	}
	cfg = cfg.withDefaults()
	proto, err := table.NewFromDicts("model", st.Attrs, st.Dicts)
	if err != nil {
		return nil, err
	}
	ext, err := feature.FromSnapshot(st.Feature, proto)
	if err != nil {
		return nil, err
	}
	if st.Lineage.Version < 0 || st.Lineage.RefitRows < 0 {
		return nil, fmt.Errorf("zeroed: model state lineage %+v is negative", st.Lineage)
	}
	m := &Model{
		cfg:     cfg,
		attrs:   st.Attrs,
		dicts:   st.Dicts,
		proto:   proto,
		fitRows: st.FitRows,
		ext:     ext,
		info:    st.Info,
		lineage: st.Lineage,
	}
	if st.Net != nil {
		mlp, err := nn.FromSnapshot(st.Net)
		if err != nil {
			return nil, err
		}
		if mlp.InputDim() != ext.Dim() {
			return nil, fmt.Errorf("zeroed: detector input dim %d does not match feature dim %d", mlp.InputDim(), ext.Dim())
		}
		m.mlp = mlp
	} else {
		for i, fl := range st.Fallback {
			if fl.Row < 0 || fl.Row >= st.FitRows || fl.Col < 0 || fl.Col >= len(st.Attrs) {
				return nil, fmt.Errorf("zeroed: fallback label %d at (%d,%d) outside the %dx%d fit shape",
					i, fl.Row, fl.Col, st.FitRows, len(st.Attrs))
			}
		}
		m.fallback = st.Fallback
	}
	return m, nil
}
