// Performance: the flat numeric core in action. Runs detection with the
// scoring dedup cache on and off, verifies the two produce bit-identical
// scores (the cache's exactness contract), and shows the low-level tile
// APIs — feature.RowFeaturesInto + nn.PredictInto — that the fused scoring
// path is built from, for anyone embedding the extractor/detector pair
// directly.
//
//	go run ./examples/performance [-rows 2000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/datasets"
	"repro/internal/feature"
	"repro/internal/nn"
	"repro/internal/zeroed"
)

func main() {
	rows := flag.Int("rows", 2000, "Hospital benchmark size")
	flag.Parse()
	b := datasets.Hospital(*rows, 7)

	// 1. End-to-end: dedup cache on (default) vs off. Same bits, less work.
	ctx := context.Background()
	on, err := zeroed.New(zeroed.Config{Seed: 7}).DetectOn(ctx, nil, b.Dirty)
	if err != nil {
		log.Fatal(err)
	}
	off, err := zeroed.New(zeroed.Config{Seed: 7, DisableScoreDedup: true}).DetectOn(ctx, nil, b.Dirty)
	if err != nil {
		log.Fatal(err)
	}
	for i := range on.Scores {
		for j := range on.Scores[i] {
			if math.Float64bits(on.Scores[i][j]) != math.Float64bits(off.Scores[i][j]) {
				log.Fatalf("score (%d,%d) differs between dedup on and off", i, j)
			}
		}
	}
	fmt.Printf("dedup on:  %v\ndedup off: %v\nall %d cell scores bit-identical\n",
		on.Runtime.Round(1e6), off.Runtime.Round(1e6), len(on.Scores)*len(on.Scores[0]))

	// 2. The tile contracts underneath: one flat row-major block per row of
	// features, one batched forward pass, no per-cell allocation.
	ext := feature.NewExtractor(b.Dirty, feature.DefaultConfig())
	m, dim := b.Dirty.NumCols(), ext.Dim()
	tile := make([]float64, m*dim) // reused for every row
	scores := make([]float64, m)

	mlp := nn.New(dim, nn.Config{Epochs: 2, Seed: 1})
	X := make([]float64, 2*dim) // two training rows, back to back
	X[dim] = 1
	if _, err := mlp.Train(ctx, X, 2, []float64{0, 1}, 0); err != nil {
		log.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		ext.RowFeaturesInto(i, tile)     // all m cells featurized, bases computed once
		mlp.PredictInto(tile, m, scores) // batched inference over the tile
		fmt.Printf("row %d scores: %.3f...\n", i, scores[:min(3, m)])
	}
}
