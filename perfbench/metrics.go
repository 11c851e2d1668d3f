package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The names and units
// match BENCHMARK.json at the repository root (pinned by the self-test).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; printed with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fit_s", "s"},
	{"tokens", "count"},
	{"f1", "ratio"},
	{"score_p50_ms", "ms"},
	{"score_p95_ms", "ms"},
	{"stream_first_p50_ms", "ms"},
	{"stream_p50_ms", "ms"},
	{"stream_p95_ms", "ms"},
	{"repair_p50_ms", "ms"},
	{"repair_p95_ms", "ms"},
	{"rows_per_s", "rows/s"},
	{"max_rss_mb", "MB"},
}

// fitStages are the six stages FitInfo.Stages reports, in pipeline order.
var fitStages = []string{"extractor", "criteria", "sample_label", "traindata", "matrix", "train"}

// perLayer is one number per layer; printed with -trace 1.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range fitStages {
		defs = append(defs, metricDef{"zeroed.fit." + s + "_ms", "ms"})
	}
	for _, s := range fitStages {
		defs = append(defs, metricDef{"zeroed.fit." + s + "_alloc_mb", "MB"})
	}
	defs = append(defs,
		metricDef{"llm.input_tokens", "count"},
		metricDef{"llm.output_tokens", "count"},
		metricDef{"zeroed.sampled_cells", "count"},
		metricDef{"zeroed.training_cells", "count"},
		metricDef{"zeroed.augmented_errs", "count"},
		metricDef{"criteria.count", "count"},
		metricDef{"table.ingest_ms", "ms"},
		metricDef{"table.ingest_mb_per_s", "MB/s"},
		metricDef{"zeroed.score_ms", "ms"},
		metricDef{"zeroed.score_cells_per_s", "cells/s"},
		metricDef{"zeroed.stream_chunk_ms", "ms"},
		metricDef{"zeroed.unseen_share", "ratio"},
		metricDef{"model.encode_ms", "ms"},
		metricDef{"model.artifact_mb", "MB"},
		metricDef{"model.persist_ms", "ms"},
		metricDef{"model.decode_ms", "ms"},
		metricDef{"repair.propose_ms", "ms"},
		metricDef{"repair.fixes", "count"},
	)
	for _, r := range routeNames {
		defs = append(defs,
			metricDef{"serve." + r + ".requests", "count"},
			metricDef{"serve." + r + ".failed", "count"},
			metricDef{"serve." + r + ".server_ms", "ms"},
		)
	}
	defs = append(defs,
		metricDef{"serve.score_phase_ms", "ms"},
		metricDef{"serve.repair_phase_ms", "ms"},
		metricDef{"serve.encode_ms", "ms"},
		metricDef{"serve.resp_kb", "KB"},
		metricDef{"serve.stream_accum_rows", "count"},
		metricDef{"bench.rows_per_request", "count"},
		metricDef{"bench.distinct_batches", "count"},
		metricDef{"bench.fits", "count"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
	return defs
}()

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
