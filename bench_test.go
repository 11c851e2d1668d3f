// Package repro's root benchmarks regenerate every table and figure of the
// paper at a reduced dataset scale (benchScale); cmd/experiments runs the
// same code at arbitrary scales. One benchmark per experiment, plus
// ablation benches for single pipeline design choices (propagation,
// embedding width, augmentation, MLP width); README's "Benchmarks" section
// shows how to run them.
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"testing"

	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// benchScale keeps a full -bench=. sweep in the minutes range while
// preserving every experiment's shape; cmd/experiments -scale 1.0 runs the
// paper-sized versions.
const benchScale = 0.1

func benchOpts() experiments.Options {
	return experiments.Options{
		Scale: benchScale,
		Seed:  1,
		// Small Tax subsets keep the Fig. 7b/8b sweeps bounded in the
		// bench harness; cmd/experiments runs the paper's 50k-200k sweep.
		TaxSizes: []int{600, 1200},
	}
}

// reportF1 attaches a custom F1 metric to the benchmark output.
func reportF1(b *testing.B, name string, f1 float64) {
	b.ReportMetric(f1, name+"-F1")
}

func BenchmarkTable3MethodComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Wins("ZeroED")), "zeroed-wins")
	}
}

func BenchmarkTable4Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var full float64
		for _, d := range res.Datasets {
			full += res.Cells["ZeroED"][d].F1
		}
		b.ReportMetric(full/float64(len(res.Datasets)), "full-mean-F1")
	}
}

func BenchmarkTable5LLMs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanF1("Qwen2.5-72b"), "qwen72-mean-F1")
		b.ReportMetric(res.MeanF1("GPT-4o-mini"), "gpt4omini-mean-F1")
	}
}

func BenchmarkTable6Clustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var km float64
		for _, d := range res.Datasets {
			km += res.Cells["k-Means"][d].F1
		}
		b.ReportMetric(km/float64(len(res.Datasets)), "kmeans-mean-F1")
	}
}

func BenchmarkFig6RahaActiveLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var tail float64
		for _, d := range res.Datasets {
			c := res.F1[d]
			tail += c[len(c)-1]
		}
		b.ReportMetric(tail/float64(len(res.Datasets)), "raha45-mean-F1")
	}
}

func BenchmarkFig7Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if ts := res.PerSize["ZeroED"]; len(ts) > 0 {
			b.ReportMetric(ts[len(ts)-1].Seconds(), "zeroed-taxmax-sec")
		}
	}
}

func BenchmarkFig8TokenCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.ReductionAtMax(), "token-reduction-%")
	}
}

func BenchmarkFig9LabelRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var at5 float64
		for _, d := range res.Datasets {
			ms := res.Metrics[d]
			at5 += ms[len(ms)-1].F1
		}
		b.ReportMetric(at5/float64(len(res.Datasets)), "rate5pct-mean-F1")
	}
}

func BenchmarkFig10CorrAttrs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var atK2 float64
		for _, d := range res.Datasets {
			atK2 += res.Metrics[d][1].F1 // k=2, the paper's default
		}
		b.ReportMetric(atK2/float64(len(res.Datasets)), "k2-mean-F1")
	}
}

func BenchmarkFig11ErrorTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.F1["ZeroED"]["ME"], "zeroed-mixed-F1")
	}
}

// ---- Ablation benches beyond the paper's Table IV ----

// benchBench generates the shared small benchmark for config ablations.
func ablationBench() *datasets.Bench { return datasets.Hospital(400, 9) }

func runConfig(b *testing.B, cfg zeroed.Config, bench *datasets.Bench) float64 {
	b.Helper()
	res, err := zeroed.New(cfg).DetectOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		b.Fatal(err)
	}
	m, err := eval.ComputeAgainst(res.Pred, bench.Dirty, bench.Clean)
	if err != nil {
		b.Fatal(err)
	}
	return m.F1
}

func BenchmarkAblationPropagation(b *testing.B) {
	bench := ablationBench()
	for i := 0; i < b.N; i++ {
		on := runConfig(b, zeroed.Config{Seed: 9}, bench)
		off := runConfig(b, zeroed.Config{Seed: 9, DisablePropagation: true}, bench)
		reportF1(b, "with-propagation", on)
		reportF1(b, "without-propagation", off)
	}
}

func BenchmarkAblationEmbeddingDim(b *testing.B) {
	bench := ablationBench()
	for i := 0; i < b.N; i++ {
		reportF1(b, "dim8", runConfig(b, zeroed.Config{Seed: 9, EmbedDim: 8}, bench))
		reportF1(b, "dim32", runConfig(b, zeroed.Config{Seed: 9, EmbedDim: 32}, bench))
	}
}

func BenchmarkAblationAugmentation(b *testing.B) {
	bench := ablationBench()
	for i := 0; i < b.N; i++ {
		reportF1(b, "augment300", runConfig(b, zeroed.Config{Seed: 9, AugmentPerAttr: 300}, bench))
		reportF1(b, "augment10", runConfig(b, zeroed.Config{Seed: 9, AugmentPerAttr: 10}, bench))
	}
}

func BenchmarkAblationMLPWidth(b *testing.B) {
	bench := ablationBench()
	for i := 0; i < b.N; i++ {
		narrow := zeroed.Config{Seed: 9}
		narrow.MLP.Hidden1, narrow.MLP.Hidden2 = 16, 8
		narrow.MLP.Epochs = 12
		reportF1(b, "mlp16x8", runConfig(b, narrow, bench))
		reportF1(b, "mlp64x32", runConfig(b, zeroed.Config{Seed: 9}, bench))
	}
}

// ---- Scaling benches: the sharded, fully-parallel detection engine ----

// BenchmarkDetectSharded compares serial detection (one worker, one scoring
// shard) against the sharded parallel engine (GOMAXPROCS workers, auto
// shards) on the scaled Tax workload of the Fig. 7b/8b sweeps. Both modes
// produce bit-identical results (pinned by TestWorkerAndShardInvariance);
// only scheduling differs, so the time/op ratio is the engine's speedup.
// On a single-CPU machine the two converge; near-linear scaling needs
// multiple cores.
func BenchmarkDetectSharded(b *testing.B) {
	bench := datasets.Tax(3000, 1)
	run := func(cfg zeroed.Config) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := zeroed.New(cfg).DetectOn(context.Background(), nil, bench.Dirty); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", run(zeroed.Config{Seed: 1, Workers: 1, Shards: 1}))
	b.Run("sharded", run(zeroed.Config{Seed: 1}))
}

// BenchmarkDetectBatch compares detecting several Tax datasets one after
// another against multiplexing them over one shared worker pool. Per-
// dataset results are bit-identical (pinned by TestDetectBatchMatchesDetect).
func BenchmarkDetectBatch(b *testing.B) {
	var ds []*table.Dataset
	for seed := int64(1); seed <= 4; seed++ {
		ds = append(ds, datasets.Tax(1200, seed).Dirty)
	}
	// The sequential arm uses default Workers too, so the ratio isolates
	// what multiplexing datasets over one pool buys — not intra-run
	// parallelism.
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det := zeroed.New(zeroed.Config{Seed: 1})
			for _, d := range ds {
				if _, err := det.DetectOn(context.Background(), nil, d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := zeroed.New(zeroed.Config{Seed: 1}).DetectBatch(context.Background(), ds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFMEDPipeline measures the per-tuple FMED baseline end to end on
// a Hospital(500) table.
func BenchmarkFMEDPipeline(b *testing.B) {
	bench := datasets.Hospital(500, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fmed := baselines.NewFMED(llm.NewClient(llm.Qwen72B), bench.KB)
		if _, err := fmed.Detect(bench.Dirty); err != nil {
			b.Fatal(err)
		}
	}
}
