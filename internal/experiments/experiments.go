// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV): Table III (method comparison), Table IV
// (ablations), Table V (LLM choices), Table VI (clustering methods),
// Fig. 6 (Raha active-learning curve), Fig. 7 (runtime), Fig. 8 (token
// cost), Fig. 9 (label-rate sweep), Fig. 10 (correlated-attribute sweep),
// and Fig. 11 (per-error-type performance). Each experiment returns
// structured results and can render itself in the paper's layout.
// cmd/experiments is the one way to run them (-exp <id> -scale 1.0 for
// paper sizes); this package's tests assert their orderings at Scale 0.1.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/zeroed"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies the Table II default dataset sizes (1.0 = paper
	// sizes). Smaller scales keep experiment wall-clock manageable.
	Scale float64
	// Seed drives dataset generation and method randomness.
	Seed int64
	// Out receives the rendered table/figure; nil discards output.
	Out io.Writer
	// TaxSizes overrides the Fig. 7b/8b Tax subset sweep (default: the
	// paper's 50k/100k/150k/200k, scaled).
	TaxSizes []int
	// Workers bounds ZeroED's shared worker pool (0 = GOMAXPROCS). Results
	// are identical for any value; only wall-clock changes.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// scaledSize converts a Table II default size under the scale factor,
// keeping at least 200 tuples so statistics stay meaningful.
func (o Options) scaledSize(def int) int {
	n := int(float64(def) * o.Scale)
	if n < 200 {
		n = 200
	}
	if n > def {
		n = def
	}
	return n
}

// defaultSizes are the Table II tuple counts.
var defaultSizes = map[string]int{
	"Hospital": 1000, "Flights": 2376, "Beers": 2410, "Rayyan": 1000,
	"Billionaire": 2615, "Movies": 7390, "Tax": 200000,
}

// comparisonBenches generates the six Table III datasets at scaled sizes.
func comparisonBenches(o Options) []*datasets.Bench {
	var out []*datasets.Bench
	for _, e := range datasets.Registry() {
		if e.Name == "Tax" {
			continue
		}
		out = append(out, e.Gen(o.scaledSize(defaultSizes[e.Name]), o.Seed))
	}
	return out
}

// zeroedConfig is the paper-default ZeroED configuration with the run's
// parallelism knobs applied.
func (o Options) zeroedConfig() zeroed.Config {
	return zeroed.Config{Seed: o.Seed, Workers: o.Workers}
}

// runZeroED executes ZeroED with the given config and scores it.
func runZeroED(b *datasets.Bench, cfg zeroed.Config) (eval.Metrics, *zeroed.Result, error) {
	res, err := zeroed.New(cfg).DetectOn(context.TODO(), nil, b.Dirty)
	if err != nil {
		return eval.Metrics{}, nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	m, err := eval.ComputeAgainst(res.Pred, b.Dirty, b.Clean)
	if err != nil {
		return eval.Metrics{}, nil, err
	}
	return m, res, nil
}

// methodSet builds the six baselines for a benchmark, sharing the label
// oracle the paper grants label-based methods.
func methodSet(b *datasets.Bench, seed int64) ([]baselines.Method, error) {
	mask, err := b.Mask()
	if err != nil {
		return nil, err
	}
	oracle := baselines.LabelOracle(func(row int) []bool { return mask[row] })
	raha := baselines.NewRaha(oracle)
	raha.Seed = seed
	ac := baselines.NewActiveClean(oracle)
	ac.Seed = seed
	return []baselines.Method{
		baselines.NewDBoost(),
		baselines.NewNadeef(b.FDPairs),
		baselines.NewKatara(b.KB),
		ac,
		raha,
		baselines.NewFMED(llm.NewClient(llm.Qwen72B), b.KB),
	}, nil
}

// runMethod scores one baseline on one benchmark with wall-clock timing.
func runMethod(m baselines.Method, b *datasets.Bench) (eval.Metrics, time.Duration, error) {
	start := time.Now()
	pred, err := m.Detect(b.Dirty)
	el := time.Since(start)
	if err != nil {
		return eval.Metrics{}, el, fmt.Errorf("%s on %s: %w", m.Name(), b.Name, err)
	}
	met, err := eval.ComputeAgainst(pred, b.Dirty, b.Clean)
	return met, el, err
}

// taxRun generates the Fig. 7b/8b Tax subset of n tuples and runs ZeroED
// on it. The sweep calls it once per size, one size at a time, so each
// reported runtime is that size's alone and peak memory stays that of the
// largest subset.
func taxRun(o Options, n int) (*datasets.Bench, *zeroed.Result, error) {
	b := datasets.Tax(n, o.Seed)
	_, zres, err := runZeroED(b, o.zeroedConfig())
	return b, zres, err
}

// taxSizes resolves the Fig. 7b/8b subset sweep.
func (o Options) taxSizes() []int {
	if len(o.TaxSizes) > 0 {
		return append([]int(nil), o.TaxSizes...)
	}
	var out []int
	for _, base := range []int{50000, 100000, 150000, 200000} {
		out = append(out, o.scaledSize(base))
	}
	return out
}

// benchByName generates one scaled benchmark by dataset name, or errors on
// an unregistered name.
func benchByName(name string, o Options) (*datasets.Bench, error) {
	gen := datasets.ByName(name)
	if gen == nil {
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	return gen(o.scaledSize(defaultSizes[name]), o.Seed), nil
}
