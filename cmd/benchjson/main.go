// Command benchjson runs the scaled end-to-end pipeline benchmarks
// in-process and writes the results as machine-readable JSON — the perf
// trajectory file the repo tracks across PRs (BENCH_PR3.json and
// successors). For each benchmark it reports ns/op, B/op, and allocs/op,
// measured with runtime.MemStats around a timed loop (process-global, so
// allocations on worker goroutines are counted).
//
// Usage:
//
//	benchjson [-iters 3] [-out BENCH_PR6.json] [-baseline old.json] [-list]
//	          [-run regexp] [-cpuprofile default.pgo]
//
// -iters is the per-benchmark iteration count (1 = smoke mode, wired into
// CI). -baseline embeds another benchjson file's results under "baseline",
// so one file carries the before/after comparison. -list prints the
// benchmark names and exits. -run restricts to benchmarks matching the
// regexp, and -cpuprofile writes a pprof CPU profile covering the timed
// loops — together they regenerate the checked-in PGO profile
// (scripts/fitprofile.sh).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/datasets"
	"repro/internal/zeroed"
)

// Measurement is one benchmark's result in go-bench units.
type Measurement struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// File is the on-disk shape of the trajectory file.
type File struct {
	Generated  string        `json:"generated"`
	Note       string        `json:"note,omitempty"`
	Benchmarks []Measurement `json:"benchmarks"`
	// FitScoreRatio is fit-only ns/op divided by score-only ns/op when both
	// arms ran — the factor a registered model saves per scoring request
	// versus refitting the pipeline.
	FitScoreRatio float64 `json:"fit_score_ratio,omitempty"`
	// FitStages is the per-stage breakdown of the fit-only arm (ns/op and
	// B/op per pipeline stage, averaged over the arm's iterations), from
	// FitInfo.Stages — so each PR attacks the measured dominant stage.
	FitStages []StageMeasurement `json:"fit_stages,omitempty"`
	// Baseline carries the pre-change numbers the current run is compared
	// against (another benchjson run, or numbers parsed from
	// `go test -bench -benchmem` output).
	Baseline []Measurement `json:"baseline,omitempty"`
}

// StageMeasurement is one fit stage's share of the fit-only arm.
type StageMeasurement struct {
	Name       string  `json:"name"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`
}

// bench is one runnable benchmark: setup happens in the closure factory so
// dataset generation stays outside the timed loop.
type bench struct {
	name string
	run  func() func() error
}

// fitStages accumulates FitInfo.Stages across the fit-only arm's
// iterations; main averages and emits it as File.FitStages.
var fitStages struct {
	order []string
	ns    map[string]float64
	bytes map[string]float64
	iters int
}

func recordFitStages(stages []zeroed.StageTiming) {
	if fitStages.ns == nil {
		fitStages.ns = map[string]float64{}
		fitStages.bytes = map[string]float64{}
	}
	for _, st := range stages {
		if _, seen := fitStages.ns[st.Name]; !seen {
			fitStages.order = append(fitStages.order, st.Name)
		}
		fitStages.ns[st.Name] += st.Seconds * 1e9
		fitStages.bytes[st.Name] += float64(st.AllocBytes)
	}
	fitStages.iters++
}

// benches mirrors the repo's scaled pipeline benchmarks (bench_test.go):
// the end-to-end Hospital run most users care about, and the serial vs
// sharded Tax scoring workload of the Fig. 7b/8b sweeps, plus the dedup
// ablation so the cache's contribution stays visible.
func benches() []bench {
	ctx := context.Background()
	detect := func(cfg zeroed.Config, gen func() *datasets.Bench) func() func() error {
		return func() func() error {
			b := gen()
			return func() error {
				_, err := zeroed.New(cfg).DetectOn(ctx, nil, b.Dirty)
				return err
			}
		}
	}
	hospital := func() *datasets.Bench { return datasets.Hospital(500, 3) }
	tax := func() *datasets.Bench { return datasets.Tax(3000, 1) }
	return []bench{
		{"BenchmarkZeroEDPipeline", detect(zeroed.Config{Seed: 3}, hospital)},
		{"BenchmarkZeroEDPipeline/dedup-off", detect(zeroed.Config{Seed: 3, DisableScoreDedup: true}, hospital)},
		{"BenchmarkDetectSharded/serial", detect(zeroed.Config{Seed: 1, Workers: 1, Shards: 1}, tax)},
		{"BenchmarkDetectSharded/sharded", detect(zeroed.Config{Seed: 1}, tax)},
		// The fit/score split: fit-only measures the expensive phase alone;
		// score-only fits once in setup and then re-scores the same scaled
		// Tax dataset per iteration, the registered-model serving workload.
		// The ratio between the two is the File.FitScoreRatio the model
		// registry's economics rest on.
		{benchFitOnly, func() func() error {
			b := tax()
			cfg := zeroed.Config{Seed: 1}
			return func() error {
				m, err := zeroed.New(cfg).FitOn(ctx, nil, b.Dirty)
				if err != nil {
					return err
				}
				recordFitStages(m.Info().Stages)
				return nil
			}
		}},
		{benchScoreOnly, func() func() error {
			b := tax()
			m, err := zeroed.New(zeroed.Config{Seed: 1}).FitOn(ctx, nil, b.Dirty)
			if err != nil {
				fatal(err)
			}
			return func() error {
				_, err := m.ScoreOn(ctx, nil, b.Dirty)
				return err
			}
		}},
	}
}

// Names of the fit/score arms, referenced when deriving the ratio.
const (
	benchFitOnly   = "BenchmarkFitScore/fit-only"
	benchScoreOnly = "BenchmarkFitScore/score-only"
)

func measure(name string, iters int, factory func() func() error) (Measurement, error) {
	fn := factory()
	// One untimed warmup would double the runtime of these second-scale
	// pipeline benches for little stability gain, so the timed loop starts
	// cold — matching `go test -benchtime=Nx` semantics.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return Measurement{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return Measurement{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
	}, nil
}

func main() {
	iters := flag.Int("iters", 3, "iterations per benchmark (1 = smoke mode)")
	out := flag.String("out", "BENCH_PR6.json", "output JSON path")
	baseline := flag.String("baseline", "", "optional benchjson file whose benchmarks embed as the baseline")
	note := flag.String("note", "", "optional free-form note stored in the file")
	list := flag.Bool("list", false, "list benchmark names and exit")
	run := flag.String("run", "", "only run benchmarks matching this regexp")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the timed loops to this path")
	flag.Parse()

	bs := benches()
	if *list {
		for _, b := range bs {
			fmt.Println(b.name)
		}
		return
	}
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fatal(fmt.Errorf("bad -run regexp: %w", err))
		}
		kept := bs[:0]
		for _, b := range bs {
			if re.MatchString(b.name) {
				kept = append(kept, b)
			}
		}
		bs = kept
		if len(bs) == 0 {
			fatal(fmt.Errorf("-run %q matches no benchmarks", *run))
		}
	}

	f := File{Generated: time.Now().UTC().Format(time.RFC3339), Note: *note}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var prev File
		if err := json.Unmarshal(raw, &prev); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *baseline, err))
		}
		f.Baseline = prev.Benchmarks
	}

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}

	for _, b := range bs {
		fmt.Fprintf(os.Stderr, "running %s (%dx)...\n", b.name, *iters)
		m, err := measure(b.name, *iters, b.run)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "  %s\t%.0f ns/op\t%.0f B/op\t%.0f allocs/op\n",
			m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
		f.Benchmarks = append(f.Benchmarks, m)
	}

	var fitNs, scoreNs float64
	for _, m := range f.Benchmarks {
		switch m.Name {
		case benchFitOnly:
			fitNs = m.NsPerOp
		case benchScoreOnly:
			scoreNs = m.NsPerOp
		}
	}
	if fitNs > 0 && scoreNs > 0 {
		f.FitScoreRatio = fitNs / scoreNs
		fmt.Fprintf(os.Stderr, "fit/score ratio: %.1fx (score-only reuses the fitted model)\n", f.FitScoreRatio)
	}
	if fitStages.iters > 0 {
		n := float64(fitStages.iters)
		for _, name := range fitStages.order {
			f.FitStages = append(f.FitStages, StageMeasurement{
				Name:       name,
				NsPerOp:    fitStages.ns[name] / n,
				BytesPerOp: fitStages.bytes[name] / n,
			})
			fmt.Fprintf(os.Stderr, "  fit stage %-12s\t%.0f ns/op\t%.0f B/op\n",
				name, fitStages.ns[name]/n, fitStages.bytes[name]/n)
		}
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
