// Scalability: sweep Tax subset sizes and compare ZeroED's token cost and
// runtime against per-tuple FM_ED prompting — the Fig. 7b/8b experiment in
// miniature. ZeroED's LLM cost is driven by the sample (label rate), not
// the dataset, so its token curve flattens while FM_ED's climbs linearly.
//
//	go run ./examples/scalability [-sizes 2000,5000,10000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/llm"
	"repro/internal/zeroed"
)

func main() {
	sizesFlag := flag.String("sizes", "2000,5000,10000", "comma-separated Tax subset sizes")
	flag.Parse()
	var sizes []int
	for _, s := range strings.Split(*sizesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatalf("bad size %q: %v", s, err)
		}
		sizes = append(sizes, n)
	}

	fmt.Printf("%-8s | %-28s | %-28s | %s\n", "rows", "ZeroED tokens (in/out)", "FM_ED tokens (in/out)", "reduction")
	for _, n := range sizes {
		b := datasets.Tax(n, 11)

		res, err := zeroed.New(zeroed.Config{Seed: 11, LabelRate: 0.02}).DetectOn(context.Background(), nil, b.Dirty)
		if err != nil {
			log.Fatal(err)
		}

		client := llm.NewClient(llm.Qwen72B)
		fmed := baselines.NewFMED(client, b.KB)
		if _, err := fmed.Detect(b.Dirty); err != nil {
			log.Fatal(err)
		}
		fu := fmed.Usage()

		// The paper's Fig. 7b/8b report runtime and tokens for Tax (its
		// 0.1% error rate makes F1 uninformative, and the paper does not
		// report it either).
		reduction := 1 - float64(res.Usage.Total())/float64(fu.Total())
		fmt.Printf("%-8d | %10d / %-12d | %10d / %-12d | %.1f%%  (ZeroED runtime %v)\n",
			n, res.Usage.InputTokens, res.Usage.OutputTokens,
			fu.InputTokens, fu.OutputTokens, 100*reduction, res.Runtime.Round(1e6))
	}
}
