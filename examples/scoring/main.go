// Fit once, score forever: fit a ZeroED model on a benchmark, persist it
// as a versioned artifact, load it back, and score fresh rows — including
// values the fit never saw — without re-running criteria induction,
// sampling, labeling, or training.
//
//	go run ./examples/scoring
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/datasets"
	"repro/internal/model"
	"repro/internal/zeroed"
)

func main() {
	bench := datasets.Hospital(400, 9)
	d := bench.Dirty
	fmt.Printf("Hospital: %d tuples x %d attributes\n", d.NumRows(), d.NumCols())

	// Fit: the expensive phase, run exactly once.
	ctx := context.Background()
	m, err := zeroed.New(zeroed.Config{Seed: 9, LabelRate: 0.08}).FitOn(ctx, nil, d)
	if err != nil {
		log.Fatal(err)
	}
	info := m.Info()
	fmt.Printf("fit: %d criteria, %d training cells, %v\n",
		info.CriteriaCount, info.TrainingCells, info.FitRuntime.Round(1e6))

	// Persist the artifact and load it back — the round trip is
	// bit-preserving for scoring.
	path := filepath.Join(os.TempDir(), "hospital.zedm")
	if err := model.SaveFile(path, m); err != nil {
		log.Fatal(err)
	}
	loaded, err := model.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	fmt.Printf("artifact: %s (%d bytes)\n", path, fi.Size())

	// Score the fitting data with the loaded model: identical verdicts to
	// DetectOn, at a fraction of the cost.
	res, err := loaded.ScoreOn(ctx, nil, d)
	if err != nil {
		log.Fatal(err)
	}
	flagged := 0
	for _, row := range res.Pred {
		for _, p := range row {
			if p {
				flagged++
			}
		}
	}
	fmt.Printf("score: flagged %d of %d cells in %v (%.0fx faster than the fit)\n",
		flagged, d.NumCells(), res.Runtime.Round(1e6),
		float64(info.FitRuntime)/float64(res.Runtime))

	// Score brand-new rows: seen values replay the memoized feature path,
	// unseen values take the defined cold path.
	fresh := [][]string{
		d.Row(0), // a tuple the model has seen
		d.Row(1),
	}
	fresh[1][0] = "a-provider-number-never-seen-before"
	rres, err := loaded.ScoreRowsOn(ctx, nil, fresh)
	if err != nil {
		log.Fatal(err)
	}
	for i, row := range rres.Pred {
		errs := 0
		for _, p := range row {
			if p {
				errs++
			}
		}
		fmt.Printf("fresh row %d: %d cells flagged\n", i, errs)
	}
}
