package zeroed

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/criteria"
	"repro/internal/feature"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/table"
)

// Pipeline phases, used to derive independent per-(attribute, phase) random
// streams so that no stage's randomness depends on execution order.
const (
	phaseCriteria  = 1 // criteria generation
	phaseSample    = 2 // clustering, guideline generation, labeling
	phaseTrainData = 3 // propagation caps, augmentation host selection
)

// attrRng derives the deterministic random source for one attribute and
// pipeline phase, so parallel and sequential execution produce identical
// results for any worker or shard count.
func attrRng(seed int64, attr, phase int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(attr)*7919 + int64(phase)*104729))
}

// engine is one staged run of the ZeroED pipeline over a single dataset.
// Every stage fans its per-attribute (or per-row-shard) units out on one
// shared bounded worker pool, so the stages of one run — and, under
// DetectBatch, the stages of many concurrent runs — draw from the same
// worker budget instead of oversubscribing the machine.
//
// Determinism contract: each unit writes only its own slots (indexed by
// attribute or row), every stochastic step draws from a per-(attribute,
// phase) stream via attrRng, and cross-unit aggregation happens in index
// order after the stage joins. Results are therefore bit-identical for any
// Workers and Shards setting.
type engine struct {
	cfg    Config
	ctx    context.Context
	pool   *Pool
	d      *table.Dataset
	client *llm.Client
	rng    *rand.Rand // engine-level stream: cluster-row sampling only
	res    *Result

	ext             *feature.Extractor
	critSets        []*criteria.Set
	clusterRows     []int // rows participating in clustering (sorted)
	clustersPerAttr int
	clusterings     []*cluster.Result
	labeled         [][]cellLabel // LLM-labeled samples per attribute
	training        []cellLabel
	synth           []syntheticCell
}

// DetectOn runs the full ZeroED pipeline on a dirty dataset and returns
// per-cell error predictions. It never consults ground truth. Every stage
// draws its workers from p; a nil p means a private pool of
// Config.Workers, and results are bit-identical for any pool. Serving
// layers pass one machine-wide pool (NewPool) so that concurrently
// admitted jobs share its worker budget instead of spawning their own.
//
// The context is checked between pipeline stages, between per-attribute
// and per-shard work units, and per training epoch, so a canceled job
// releases its workers promptly (within the current unit of work). A
// canceled run returns an error wrapping the context's error; cancellation
// never produces a partial Result.
//
// DetectOn is literally FitOn composed with scoring the same dataset, which
// is what makes DetectOn(ds) ≡ ScoreOn(FitOn(ds), ds) hold bit-for-bit.
func (dt *Detector) DetectOn(ctx context.Context, p *Pool, d *table.Dataset) (*Result, error) {
	start := time.Now()
	p = p.orNew(dt.cfg.Workers)
	m, err := dt.FitOn(ctx, p, d)
	if err != nil {
		return nil, err
	}
	// The fit dataset needs no re-interning: the model's dictionaries ARE
	// its pools, so every cell ID is already bound — score it directly
	// instead of paying ScoreOn's O(cells) copy. ScoreOn(FitOn(ds), ds)
	// takes the copying path and lands on the same IDs, which is why the
	// two are bit-identical.
	res, err := m.scoreBound(ctx, p, d)
	if err != nil {
		return nil, err
	}
	res.Usage = m.info.Usage
	res.SampledCells = m.info.SampledCells
	res.TrainingCells = m.info.TrainingCells
	res.AugmentedErrs = m.info.AugmentedErrs
	res.CriteriaCount = m.info.CriteriaCount
	res.Runtime = time.Since(start)
	return res, nil
}

// FitOn runs the expensive phase of the pipeline — criteria induction,
// clustering-based sampling, LLM labeling, training-data construction, and
// detector training — on pool p (nil: a private pool of Config.Workers),
// and packages everything scoring needs into a reusable Model. FitOn never
// scores the dataset; compose with ScoreOn, or use DetectOn for the
// one-shot form. Cancellation checkpoints are DetectOn's.
func (dt *Detector) FitOn(ctx context.Context, p *Pool, d *table.Dataset) (*Model, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if d.NumRows() == 0 || d.NumCols() == 0 {
		return nil, fmt.Errorf("zeroed: empty dataset")
	}
	// The fit span carries every stage span below it. Spans observe wall
	// time and allocs strictly out of band — RNG streams, dedup caches, and
	// every computed value are untouched, so tracing on ≡ tracing off
	// bit-for-bit (pinned by TestTraceOnOffBitIdentical).
	ctx, fitSpan := obs.Start(ctx, "fit")
	defer fitSpan.End()
	fitSpan.SetInt("rows", int64(d.NumRows()))
	fitSpan.SetInt("cols", int64(d.NumCols()))
	e := &engine{
		cfg:    dt.cfg,
		ctx:    ctx,
		pool:   p.orNew(dt.cfg.Workers),
		d:      d,
		client: llm.NewClient(dt.cfg.Profile),
		rng:    rand.New(rand.NewSource(dt.cfg.Seed)),
		res:    &Result{},
	}
	var mlp *nn.MLP
	var flatX []float64
	var nTrain int
	var yTrain []float64
	var trainHelpers int
	stages := []struct {
		name string
		fn   func() error
	}{
		{"extractor", func() error { e.stageExtractor(); return nil }},
		{"criteria", func() error { e.stageCriteria(); return nil }},
		{"sample_label", e.stageSampleAndLabel},
		{"traindata", func() error { e.stageTrainingData(); return nil }},
		{"matrix", func() error { flatX, nTrain, yTrain = e.stageTrainingMatrix(); return nil }},
		{"train", func() error {
			var err error
			mlp, trainHelpers, err = e.stageTrain(flatX, nTrain, yTrain)
			return err
		}},
	}
	timings := make([]StageTiming, 0, len(stages))
	for _, stage := range stages {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("zeroed: detection canceled: %w", err)
		}
		// One measurement per stage: the phase's span feeds the trace tree,
		// and the numbers its End returns feed FitInfo.Stages (perfbench's
		// per-stage metrics, the zeroedd_fit_stage_seconds family).
		phase := obs.StartPhase(ctx, "fit."+stage.name)
		if err := stage.fn(); err != nil {
			phase.End()
			return nil, err
		}
		if stage.name == "train" {
			phase.SetInt("helpers", int64(trainHelpers))
		}
		d, alloc := phase.End()
		timings = append(timings, StageTiming{Name: stage.name, Seconds: d.Seconds(), AllocBytes: alloc})
	}
	// A stage interrupted mid-flight leaves partial state; surface the
	// cancellation rather than a half-fitted model.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("zeroed: detection canceled: %w", err)
	}
	m := &Model{
		cfg:     dt.cfg,
		attrs:   append([]string(nil), d.Attrs...),
		dicts:   make([][]string, d.NumCols()),
		fitRows: d.NumRows(),
		ext:     e.ext,
		mlp:     mlp,
		info: FitInfo{
			SampledCells:  e.res.SampledCells,
			TrainingCells: e.res.TrainingCells,
			AugmentedErrs: e.res.AugmentedErrs,
			CriteriaCount: e.res.CriteriaCount,
			Usage:         e.client.Usage(),
			FitRuntime:    time.Since(start),
			Stages:        timings,
		},
	}
	// The dictionaries are captured post-fit (including values interned by
	// synthetic-error featurization) with their capacity clamped, so scoring
	// datasets seeded from them can grow without mutating the fit dataset's
	// pools — and vice versa.
	for j := range m.dicts {
		dict := d.Dict(j)
		m.dicts[j] = dict[:len(dict):len(dict)]
	}
	// Rebind the extractor to a rows-free dataset over the captured pools:
	// scoring rebinds per call anyway, and holding the fit dataset's row
	// matrices alive for the model's lifetime would pin the whole upload in
	// a serving registry. (Restored models are bound the same way.)
	proto, err := table.NewFromDicts(d.Name, m.attrs, m.dicts)
	if err != nil {
		return nil, err // unreachable: intern pools are duplicate-free
	}
	m.proto = proto
	m.ext = e.ext.Rebind(proto)
	if mlp == nil {
		for _, c := range e.training {
			m.fallback = append(m.fallback, FallbackLabel{Row: c.row, Col: c.col, IsErr: c.isErr})
		}
	}
	return m, nil
}

// corrFor returns the correlated-attribute set of attribute j, honoring the
// "w/o Corr." ablation (which removes correlated-attribute context from
// features, criteria reasoning, and guideline generation alike).
func (e *engine) corrFor(j int) []int {
	if e.cfg.DisableCorrelated {
		return nil
	}
	return e.ext.Correlated(j)
}

// stageExtractor builds the feature extractor: frequency tables, NMI
// correlation structure, and the per-unique-value memo tables (Step 1 of
// the paper, before criteria reasoning).
func (e *engine) stageExtractor() {
	e.ext = feature.NewExtractor(e.d, feature.Config{
		EmbedDim:          e.cfg.EmbedDim,
		CorrK:             e.cfg.CorrK,
		DisableCorrelated: e.cfg.DisableCorrelated,
		DisableCriteria:   e.cfg.DisableCriteria,
	})
}

// stageCriteria generates every attribute's criteria set (Step 1's criteria
// reasoning). All criteria must exist before any clustering: attribute j's
// features embed the criteria bits of its correlated attributes.
func (e *engine) stageCriteria() {
	m := e.d.NumCols()
	e.critSets = make([]*criteria.Set, m)
	if e.cfg.DisableCriteria {
		return
	}
	e.pool.forN(m, func(j int) {
		if e.ctx.Err() != nil {
			return
		}
		arng := attrRng(e.cfg.Seed, j, phaseCriteria)
		sample := randomRows(arng, e.d.NumRows(), 30)
		e.critSets[j] = e.client.GenerateCriteria(e.d, j, sample, e.corrFor(j))
		e.ext.SetCriteria(j, e.critSets[j])
	})
	if e.ctx.Err() != nil {
		return
	}
	e.res.CriteriaCount = countCriteria(e.critSets)
}

// countCriteria sums the criteria across per-attribute sets. A nil set (an
// LLM substrate that produced no criteria for the attribute) contributes
// zero criteria rather than panicking the summary.
func countCriteria(sets []*criteria.Set) int {
	total := 0
	for _, s := range sets {
		if s != nil {
			total += len(s.Criteria)
		}
	}
	return total
}

// stageSampleAndLabel clusters each attribute's feature vectors, samples
// the cluster representatives, and labels them with the LLM under generated
// guidelines (Step 2). Labeling runs through the transient-retry path; a
// batch that exhausts its retry budget fails the whole stage (reported
// deterministically: lowest attribute index wins).
func (e *engine) stageSampleAndLabel() error {
	n, m := e.d.NumRows(), e.d.NumCols()
	e.clustersPerAttr = int(float64(n) * e.cfg.LabelRate)
	if e.clustersPerAttr < 2 {
		e.clustersPerAttr = 2
	}
	if e.clustersPerAttr > e.cfg.MaxClustersPerAttr {
		e.clustersPerAttr = e.cfg.MaxClustersPerAttr
	}
	// On large datasets, cluster a seeded row sample instead of the whole
	// column; sampling/labeling/propagation live inside the sample,
	// prediction still covers every cell.
	e.clusterRows = seq(n)
	if n > e.cfg.ClusterSampleRows {
		e.clusterRows = randomRows(e.rng, n, e.cfg.ClusterSampleRows)
		sort.Ints(e.clusterRows)
	}
	if e.clustersPerAttr > len(e.clusterRows)/2 {
		e.clustersPerAttr = max(2, len(e.clusterRows)/2)
	}

	e.labeled = make([][]cellLabel, m)
	e.clusterings = make([]*cluster.Result, m)
	sampledPerAttr := make([]int, m)
	labelErrs := make([]error, m)
	dim := e.ext.Dim()
	e.pool.forN(m, func(j int) {
		if e.ctx.Err() != nil {
			return
		}
		arng := attrRng(e.cfg.Seed, j, phaseSample)
		// One flat row-major feature tile per attribute: the clustering
		// core consumes it directly, with no per-row slice headers.
		nPts := len(e.clusterRows)
		feats := make([]float64, nPts*dim)
		e.ext.FeaturesInto(j, e.clusterRows, feats)
		var cl *cluster.Result
		switch e.cfg.Sampler {
		case SamplerRandom:
			cl = cluster.RandomSampleFlat(feats, nPts, dim, e.clustersPerAttr, arng)
		case SamplerAgglomerative:
			cl = cluster.AgglomerativeFlat(feats, nPts, dim, e.clustersPerAttr, arng, 4*e.clustersPerAttr)
		default:
			cl = cluster.KMeansFlat(feats, nPts, dim, e.clustersPerAttr, arng, 8)
		}
		e.clusterings[j] = cl
		samples := cl.CentroidSamplesFlat(feats, dim) // indices into clusterRows
		sampledPerAttr[j] = len(samples)

		sampleRows := make([]int, len(samples))
		for i, s := range samples {
			sampleRows[i] = e.clusterRows[s]
		}
		var guideline *llm.Guideline
		if !e.cfg.DisableGuidelines {
			prof := e.client.DistributionAnalysis(e.d, j, randomRows(arng, n, 20))
			guideline = e.client.GenerateGuideline(e.d, j, e.corrFor(j), prof, samplesHead(sampleRows, 20))
		}
		// Guideline judgements are a pure function of the cell's value-ID
		// tuple, so by default they dedup through a per-attribute memo
		// shared across the attribute's batches; verdicts, noise, and token
		// charging are bit-identical either way.
		var memo *llm.JudgeMemo
		if !e.cfg.DisableFitDedup {
			memo = llm.NewJudgeMemo(e.d, j, guideline)
		}
		for s := 0; s < len(sampleRows); s += e.cfg.BatchSize {
			if e.ctx.Err() != nil {
				return
			}
			end := min(s+e.cfg.BatchSize, len(sampleRows))
			batch := sampleRows[s:end]
			verdicts, err := e.client.LabelBatch(e.ctx, e.d, j, batch, guideline, memo)
			if err != nil {
				labelErrs[j] = err
				return
			}
			for bi, row := range batch {
				e.labeled[j] = append(e.labeled[j], cellLabel{row: row, col: j, isErr: verdicts[bi]})
			}
		}
	})
	for _, err := range labelErrs {
		if err != nil {
			return fmt.Errorf("zeroed: labeling failed: %w", err)
		}
	}
	for _, s := range sampledPerAttr {
		e.res.SampledCells += s
	}
	return nil
}

// stageTrainingMatrix materializes the flat feature tile for the verified
// training cells plus the synthetic augmented errors — sample i occupies
// flat[i*dim : (i+1)*dim], the layout nn.Train consumes directly. Real
// cells are featurized in parallel (pure reads of the memo tables);
// synthetic cells substitute values into the shared dataset in place, so
// they run serially after the parallel pass.
func (e *engine) stageTrainingMatrix() ([]float64, int, []float64) {
	dim := e.ext.Dim()
	total := len(e.training) + len(e.synth)
	flat := make([]float64, total*dim) // one block for all training vectors
	y := make([]float64, total)
	nt := len(e.training)
	e.pool.forN(nt, func(i int) {
		c := e.training[i]
		e.ext.FeatureInto(c.row, c.col, flat[i*dim:(i+1)*dim])
		if c.isErr {
			y[i] = 1
		}
	})
	for s, sc := range e.synth {
		i := nt + s
		featureWithSubstitution(e.ext, e.d, sc, flat[i*dim:(i+1)*dim])
		y[i] = 1
	}
	return flat, total, y
}

// stageTrain trains the MLP detector on the verified training tile
// (Step 4's training half; scoring lives on the fitted Model). Degenerate
// labeling (all clean or all dirty) yields no trainable signal and returns
// a nil model — the Model falls back to the propagated labels themselves.
//
// Training borrows whatever helper tokens the pool has free, up to what
// nn can use, and holds them until it returns; a busy pool trains on the
// calling goroutine alone, with the same bits. It returns the helper
// count alongside the model.
func (e *engine) stageTrain(flatX []float64, n int, y []float64) (*nn.MLP, int, error) {
	if !hasBothClasses(y) {
		return nil, 0, nil
	}
	mlp := nn.New(e.ext.Dim(), e.cfg.MLP)
	helpers := e.pool.lend(mlp.MaxHelpers(n))
	defer e.pool.giveBack(helpers)
	if _, err := mlp.Train(e.ctx, flatX, n, y, helpers); err != nil {
		return nil, helpers, fmt.Errorf("zeroed: training detector: %w", err)
	}
	return mlp, helpers, nil
}

// rowRange is one contiguous scoring shard.
type rowRange struct{ lo, hi int }

// shardRanges partitions n rows into at most the given number of contiguous
// non-empty shards of near-equal size.
func shardRanges(n, shards int) []rowRange {
	out := make([]rowRange, 0, shards)
	for s := 0; s < shards; s++ {
		lo, hi := n*s/shards, n*(s+1)/shards
		if lo < hi {
			out = append(out, rowRange{lo, hi})
		}
	}
	return out
}

// featureWithSubstitution computes the feature vector of a synthetic
// augmented-error cell by temporarily substituting the value in place.
// Frequency tables keep their original counts, which is the realistic
// treatment: a novel error value has (near-)zero observed frequency. The
// substituted value is interned into the column's pool past the
// extractor's memo tables, so its per-value quantities are computed on the
// fly.
func featureWithSubstitution(ext *feature.Extractor, d *table.Dataset, s syntheticCell, out []float64) {
	orig := d.Value(s.row, s.col)
	d.SetValue(s.row, s.col, s.value)
	ext.FeatureInto(s.row, s.col, out)
	d.SetValue(s.row, s.col, orig)
}

func hasBothClasses(y []float64) bool {
	var pos, neg bool
	for _, v := range y {
		if v > 0.5 {
			pos = true
		} else {
			neg = true
		}
		if pos && neg {
			return true
		}
	}
	return false
}

// randomRows draws k distinct row indices (or all rows when k >= n) via an
// O(k) partial Fisher–Yates draw — no O(n) permutation materialized, which
// matters for the small per-attribute samples on Tax-scale datasets.
func randomRows(rng *rand.Rand, n, k int) []int {
	if k >= n {
		return seq(n)
	}
	return randx.PartialPerm(rng, n, k)
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func samplesHead(xs []int, k int) []int {
	if len(xs) > k {
		return xs[:k]
	}
	return xs
}
