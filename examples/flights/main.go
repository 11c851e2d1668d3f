// Flights cleaning workflow: the paper's dirtiest benchmark (34.5% cell
// errors, multi-source flight times). This example runs ZeroED, breaks the
// results down per error type (the Fig. 11 view), and compares against the
// per-tuple FM_ED baseline on both quality and token cost.
//
//	go run ./examples/flights
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/errgen"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/zeroed"
)

func main() {
	bench := datasets.Flights(1200, 7)
	rate, err := bench.ErrorRate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Flights: %d tuples x %d attributes, %.1f%% of cells erroneous\n",
		bench.Dirty.NumRows(), bench.Dirty.NumCols(), 100*rate)

	// ZeroED.
	res, err := zeroed.New(zeroed.Config{Seed: 7}).DetectOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		log.Fatal(err)
	}
	zm, err := eval.ComputeAgainst(res.Pred, bench.Dirty, bench.Clean)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nZeroED   : P=%.3f R=%.3f F1=%.3f  (%d tokens)\n",
		zm.Precision, zm.Recall, zm.F1, res.Usage.Total())

	// FM_ED: one LLM prompt per tuple.
	client := llm.NewClient(llm.Qwen72B)
	fmed := baselines.NewFMED(client, bench.KB)
	fpred, err := fmed.Detect(bench.Dirty)
	if err != nil {
		log.Fatal(err)
	}
	fm, err := eval.ComputeAgainst(fpred, bench.Dirty, bench.Clean)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FM_ED    : P=%.3f R=%.3f F1=%.3f  (%d tokens)\n",
		fm.Precision, fm.Recall, fm.F1, fmed.Usage().Total())
	if fu := fmed.Usage().Total(); fu > 0 {
		fmt.Printf("token cost: ZeroED uses %.0f%% of FM_ED's budget\n",
			100*float64(res.Usage.Total())/float64(fu))
	}

	// Per-error-type breakdown for ZeroED (recall per type, shared
	// precision), the lens of the paper's Fig. 11.
	fmt.Println("\nZeroED recall by error type:")
	perType, err := eval.PerType(res.Pred, bench.Dirty, bench.Clean)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range errgen.AllTypes() {
		if m, ok := perType[t]; ok {
			fmt.Printf("  %-3s recall=%.3f (%d of %d caught)\n", t, m.Recall, m.TP, m.TP+m.FN)
		}
	}
}
