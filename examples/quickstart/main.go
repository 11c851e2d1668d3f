// Quickstart: detect errors in a small tabular dataset with ZeroED's
// default configuration and inspect what the pipeline did.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/zeroed"
)

func main() {
	// Generate a small Hospital-style benchmark: a clean ground truth plus
	// a dirty copy with typos, pattern violations, outliers, and rule
	// violations injected (Table II rates).
	bench := datasets.Hospital(500, 42)
	rate, err := bench.ErrorRate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d tuples x %d attributes, %.2f%% of cells erroneous\n",
		bench.Dirty.NumRows(), bench.Dirty.NumCols(), 100*rate)

	// Run ZeroED with paper defaults: 5%% LLM label rate, 2 correlated
	// attributes, k-means sampling, the Qwen2.5-72b profile.
	detector := zeroed.New(zeroed.Config{Seed: 42})
	result, err := detector.DetectOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pipeline: labeled %d sampled cells, trained on %d cells (%d augmented errors), %d criteria\n",
		result.SampledCells, result.TrainingCells, result.AugmentedErrs, result.CriteriaCount)
	fmt.Printf("LLM cost: %d calls, %d input + %d output tokens\n",
		result.Usage.Calls, result.Usage.InputTokens, result.Usage.OutputTokens)

	// Score against ground truth.
	metrics, err := eval.ComputeAgainst(result.Pred, bench.Dirty, bench.Clean)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("precision %.3f, recall %.3f, F1 %.3f\n",
		metrics.Precision, metrics.Recall, metrics.F1)

	// Show a few detected errors with their ground truth.
	fmt.Println("\nsample detections:")
	shown := 0
	for i := 0; i < bench.Dirty.NumRows() && shown < 5; i++ {
		for j := 0; j < bench.Dirty.NumCols() && shown < 5; j++ {
			if result.Pred[i][j] && bench.Dirty.Value(i, j) != bench.Clean.Value(i, j) {
				fmt.Printf("  row %d, %s: %q (truth: %q)\n",
					i, bench.Dirty.Attrs[j], bench.Dirty.Value(i, j), bench.Clean.Value(i, j))
				shown++
			}
		}
	}
}
