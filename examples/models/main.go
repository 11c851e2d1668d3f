// Model comparison: run ZeroED with every simulated LLM profile on one
// benchmark — Table V in miniature. Stronger profiles write better
// criteria, exploit more of the distribution analysis, and label with less
// noise; the GPT-4o-mini profile's high false-positive rate sinks its
// precision, as the paper observed.
//
//	go run ./examples/models
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/zeroed"
)

func main() {
	bench := datasets.Beers(800, 17)
	rate, err := bench.ErrorRate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Beers: %d tuples x %d attributes, %.1f%% of cells erroneous\n\n",
		bench.Dirty.NumRows(), bench.Dirty.NumCols(), 100*rate)
	fmt.Printf("%-14s | %9s %9s %9s | %s\n", "model", "precision", "recall", "F1", "tokens")

	for _, p := range llm.Profiles() {
		res, err := zeroed.New(zeroed.Config{Seed: 17, Profile: p}).DetectOn(context.Background(), nil, bench.Dirty)
		if err != nil {
			log.Fatal(err)
		}
		m, err := eval.ComputeAgainst(res.Pred, bench.Dirty, bench.Clean)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s | %9.3f %9.3f %9.3f | %d\n",
			p.Name, m.Precision, m.Recall, m.F1, res.Usage.Total())
	}
}
