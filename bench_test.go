// Package repro's root benchmarks time the detection engine: serial
// against sharded detection, sequential against batched detection, and
// the per-tuple FMED baseline. The paper's tables and figures run from
// cmd/experiments instead, and go test ./internal/experiments asserts
// their orderings.
//
//	go test -run='^$' -bench=. -benchmem
package repro

import (
	"context"
	"testing"

	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/llm"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// BenchmarkDetectSharded compares serial detection (one worker) against the
// sharded parallel engine (GOMAXPROCS workers, 4 scoring shards per worker)
// on the scaled Tax workload of the Fig. 7b/8b sweeps. Both modes
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
	b.Run("serial", run(zeroed.Config{Seed: 1, Workers: 1}))
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
