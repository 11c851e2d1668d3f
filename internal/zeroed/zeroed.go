// Package zeroed implements the paper's primary contribution: the ZeroED
// hybrid zero-shot error detection framework (Section III). The pipeline
// runs in four steps — error-reason-aware feature representation,
// clustering-based sampling with holistic LLM labeling, training-data
// construction with mutual verification and augmentation (Algorithm 1),
// and MLP detector training — and requires no pre-existing labels or
// criteria. The LLM substrate is injectable (see internal/llm), and every
// design choice the paper ablates is a configuration flag.
package zeroed

import (
	"runtime"
	"time"

	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/table"
)

// Sampler selects the clustering strategy for representative sampling
// (the Table VI comparison).
type Sampler string

// Sampling strategies.
const (
	SamplerKMeans        Sampler = "kmeans"
	SamplerAgglomerative Sampler = "agc"
	SamplerRandom        Sampler = "random"
)

// Config controls a ZeroED run. Zero values select the paper's defaults.
type Config struct {
	// LabelRate is the fraction of tuples sampled per attribute for LLM
	// labeling; the per-attribute cluster count is rows*LabelRate
	// (default 0.05, the paper's default).
	LabelRate float64
	// CorrK is the number of correlated attributes (default 2).
	CorrK int
	// EmbedDim is the semantic embedding width (default 32).
	EmbedDim int
	// Sampler selects the sampling strategy (default k-means).
	Sampler Sampler
	// Profile selects the simulated LLM (default Qwen2.5-72b).
	Profile llm.Profile
	// BatchSize is the labeling batch size in tuples (default 20).
	BatchSize int
	// MLP configures the detector network.
	MLP nn.Config
	// Threshold is the error-probability decision threshold (default 0.4;
	// the MLP is precision-heavy, so a sub-0.5 threshold trades surplus
	// precision for recall).
	Threshold float64
	// Seed drives sampling and training randomness.
	Seed int64
	// Workers bounds pipeline parallelism. Zero or negative means
	// runtime.GOMAXPROCS(0); withDefaults normalizes it, so everything
	// downstream can assume Workers >= 1. One bounded worker pool of this
	// size is shared by every stage of a run (and by every run of a
	// DetectBatch). The scoring pass is cut into 4×Workers contiguous row
	// shards (at most one per row). Results are bit-identical regardless
	// of worker count: every stochastic step uses a per-(attribute, phase)
	// derived stream, every unit writes disjoint output slots, and the
	// scoring dedup caches (a shard's own and the model's warm cache) only
	// replay the exact float64 the model would recompute.
	Workers int

	// MaxPropagatedPerAttr caps in-cluster label propagation per attribute
	// to bound training-set size on large datasets (default 2000).
	MaxPropagatedPerAttr int
	// ClusterSampleRows bounds the rows participating in clustering and
	// propagation per attribute (default 6000). On larger datasets a
	// seeded row sample is clustered instead of the full column; labeling,
	// propagation, and training stay within the sample while prediction
	// covers every cell. This keeps the k-means cost independent of
	// dataset size, which is what makes Tax-scale runs tractable.
	ClusterSampleRows int
	// MaxClustersPerAttr caps the per-attribute cluster count so the LLM
	// labeling budget stays bounded on very large datasets (default 500).
	MaxClustersPerAttr int
	// AugmentPerAttr caps LLM error augmentation per attribute
	// (default 300).
	AugmentPerAttr int

	// Ablations (Table IV).
	DisableGuidelines   bool // w/o Guid.: label without ED guidelines
	DisableCriteria     bool // w/o Crit.: no criteria reasoning features
	DisableCorrelated   bool // w/o Corr.: no correlated-attribute context
	DisableVerification bool // w/o Veri.: no refinement/verification/augmentation
}

// withDefaults fills unset fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.LabelRate <= 0 {
		c.LabelRate = 0.05
	}
	if c.CorrK <= 0 {
		c.CorrK = 2
	}
	if c.EmbedDim <= 0 {
		c.EmbedDim = 32
	}
	if c.Sampler == "" {
		c.Sampler = SamplerKMeans
	}
	if c.Profile.Name == "" {
		c.Profile = llm.Qwen72B
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 20
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.4
	}
	if c.MaxPropagatedPerAttr <= 0 {
		c.MaxPropagatedPerAttr = 2000
	}
	if c.ClusterSampleRows <= 0 {
		c.ClusterSampleRows = 6000
	}
	if c.MaxClustersPerAttr <= 0 {
		c.MaxClustersPerAttr = 500
	}
	if c.AugmentPerAttr <= 0 {
		c.AugmentPerAttr = 300
	}
	if c.MLP.Hidden1 == 0 {
		c.MLP = nn.DefaultConfig()
		c.MLP.Epochs = 12
	}
	c.MLP.Seed = c.Seed + 101
	// The one spot that normalizes the worker budget; no other code checks
	// for Workers <= 0.
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// shardCount resolves the scoring-shard count for an n-row dataset: a few
// shards per worker so the pool can balance uneven shard costs, and never
// more than the row count.
func (c Config) shardCount(n int) int {
	return max(1, min(4*c.Workers, n))
}

// Result is the outcome of one detection run.
type Result struct {
	// Pred[i][j] is true when cell (i,j) is predicted erroneous.
	Pred [][]bool
	// Scores[i][j] is the MLP's error probability (present when the run
	// reaches detector training).
	Scores [][]float64
	// Usage is the LLM token accounting for the whole run.
	Usage llm.Usage
	// Runtime is the end-to-end wall-clock duration.
	Runtime time.Duration
	// Diagnostics.
	SampledCells  int
	TrainingCells int
	AugmentedErrs int
	CriteriaCount int
}

// Detector runs the ZeroED pipeline.
type Detector struct {
	cfg Config
}

// New creates a detector; unset config fields assume the paper's defaults.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) configuration.
func (dt *Detector) Config() Config { return dt.cfg }

// cellLabel is one labeled training cell.
type cellLabel struct {
	row, col int
	isErr    bool
}

// syntheticCell is an augmented error: a clean row with one substituted
// dirty value, used only as a training example.
type syntheticCell struct {
	row, col int
	value    string
}

// newMask allocates a rows x cols boolean matrix over one flat backing
// block (two allocations total, not rows+1).
func newMask(d *table.Dataset) [][]bool {
	rows, cols := d.NumRows(), d.NumCols()
	flat := make([]bool, rows*cols)
	m := make([][]bool, rows)
	for i := range m {
		m[i] = flat[i*cols : (i+1)*cols]
	}
	return m
}

// newMatrix allocates a rows x cols float64 matrix over one flat backing
// block; the scoring shards fill disjoint row ranges of it in place.
func newMatrix(rows, cols int) [][]float64 {
	flat := make([]float64, rows*cols)
	m := make([][]float64, rows)
	for i := range m {
		m[i] = flat[i*cols : (i+1)*cols]
	}
	return m
}
