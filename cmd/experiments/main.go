// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp table3            # one experiment
//	experiments -exp all -scale 0.5    # everything at half dataset sizes
//
// Experiments: table3, table4, table5, table6, fig6, fig7, fig8, fig9,
// fig10, fig11, all. Results print in the layout of the corresponding
// table or figure; go run ./cmd/experiments -exp <id> -scale 1.0 runs one
// at the paper's dataset sizes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (table3..table6, fig6..fig11, all)")
		scale   = flag.Float64("scale", 1.0, "dataset size multiplier vs Table II defaults")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "ZeroED worker-pool size (0 = GOMAXPROCS); results are identical for any value")
	)
	flag.Parse()

	o := experiments.Options{Scale: *scale, Seed: *seed, Out: os.Stdout, Workers: *workers}
	runners := map[string]func() error{
		"table3": func() error { _, err := experiments.Table3(o); return err },
		"table4": func() error { _, err := experiments.Table4(o); return err },
		"table5": func() error { _, err := experiments.Table5(o); return err },
		"table6": func() error { _, err := experiments.Table6(o); return err },
		"fig6":   func() error { _, err := experiments.Fig6(o); return err },
		"fig7":   func() error { _, err := experiments.Fig7(o); return err },
		"fig8":   func() error { _, err := experiments.Fig8(o); return err },
		"fig9":   func() error { _, err := experiments.Fig9(o); return err },
		"fig10":  func() error { _, err := experiments.Fig10(o); return err },
		"fig11":  func() error { _, err := experiments.Fig11(o); return err },
	}
	order := []string{"table3", "table4", "table5", "table6", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}

	var ids []string
	if *exp == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (have %s, all)\n", id, strings.Join(order, ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		fmt.Printf("\n===== %s (scale %.2f, seed %d) =====\n", id, *scale, *seed)
		if err := runners[id](); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}
