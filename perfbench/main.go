// Command perfbench is the repository's benchmark: one workload per run,
// every end-to-end metric (-trace 0) or every per-layer metric (-trace 1)
// printed by name and unit as the last line of stdout, with the outputs
// checked for correctness. See README.md in this directory.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/zeroed"
)

const (
	defaultRows = 1000
	// minSamples per route leaves 10 samples beyond the p95.
	minSamples = 200
	// fitSetupReps and serveSetupReps are how many times a run sets up;
	// setup_s is the median. A serve set-up fits a model (~5s), so it
	// repeats less.
	fitSetupReps   = 5
	serveSetupReps = 2
	// minFits is the fewest fits fit-hospital makes, however short the run.
	minFits = 3
	// maxLoop caps a measured loop that has not yet met its sample floor.
	maxLoop = 100 * time.Second
)

//go:embed pins.json
var pinsJSON []byte

var workloads = []string{"fit-hospital", "serve-warm", "serve-cold"}

type opts struct {
	workload   string
	seed       int64
	seconds    time.Duration
	trace      int
	rows       int // fit table size; bodies are rows/10 (score, repair) and 4× that (stream)
	minSamples int // floor on samples per route
	clients    int // closed-loop clients of the serve workloads: one per core
	zeroedd    string
	out        string
	pgo        string
	pin        string
}

func (o opts) batchRows() int { return o.rows / 10 }

// outcome is everything one workload measured.
type outcome struct {
	setupS, fitS    []float64
	tokens          int64
	f1              float64
	digest          string
	pinned          bool
	info            zeroed.FitInfo
	stageMS         map[string]float64
	stageAllocMB    map[string]float64
	artifactBytes   int
	g               *gate
	loop            loopResult
	server          map[string]float64 // serve.* and fit-stage numbers read from /metrics
	streamAccumRows int
	rssMB           float64
	buildInfo       string
	attempted       int // operations outside the loop (fits)
	failed          int
	problems        []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	var o opts
	var secs int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&secs, "seconds", 20, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: print per-layer metrics and write a Chrome trace")
	flag.StringVar(&o.zeroedd, "zeroedd", "", "zeroedd binary (serve workloads)")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for reports, traces and server logs")
	flag.StringVar(&o.pgo, "pgo", "none", "PGO profile the binaries were built with (recorded only)")
	flag.StringVar(&o.pin, "pin", "", "fit-hospital: record this seed's digest, tokens and f1 in the named pins file")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.rows, o.minSamples, o.clients = defaultRows, minSamples, runtime.NumCPU()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its report, ending with the JSON
// result line, to w.
func run(o opts, w io.Writer) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	ctx := context.Background()
	var out *outcome
	var err error
	switch o.workload {
	case "fit-hospital":
		out, err = runFit(ctx, o, tr)
	case "serve-warm", "serve-cold":
		if o.zeroedd == "" {
			return fmt.Errorf("-zeroedd is required for %s", o.workload)
		}
		out, err = runServe(ctx, o, o.workload == "serve-cold", tr)
	default:
		return fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return err
	}

	e2e, layer := assemble(o, out, tr)
	attempted, failed, _ := out.loop.totals()
	attempted += out.attempted
	failed += out.failed
	for r := range routeNames {
		if st := out.loop.stats(route(r)); st.n < o.minSamples {
			out.problem("route %s: %d samples, fewer than %d", routeNames[r], st.n, o.minSamples)
		}
	}
	correct := failed == 0 && len(out.problems) == 0

	base := filepath.Join(o.out, fmt.Sprintf("%s-s%d-t%d", o.workload, o.seed, o.trace))
	report(w, o, out, e2e, layer, tr)
	if tr != nil {
		if err := tr.writeChrome(base + ".trace.json"); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: %s.trace.json\n", base)
	}
	metrics := e2e
	if o.trace == 1 {
		metrics = layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := metrics[d.name]; ok {
			res.Metrics[d.name] = value{v, d.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".result.json", append(line, '\n'), 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// assemble computes every end-to-end and per-layer metric of a run.
func assemble(o opts, out *outcome, tr *tracer) (e2e, layer map[string]float64) {
	score, stream, rep := out.loop.stats(routeScore), out.loop.stats(routeStream), out.loop.stats(routeRepair)
	_, _, rowsPerS := out.loop.totals()
	e2e = map[string]float64{
		"setup_s":             median(out.setupS),
		"fit_s":               median(out.fitS),
		"tokens":              float64(out.tokens),
		"f1":                  out.f1,
		"score_p50_ms":        score.p50,
		"score_p95_ms":        score.p95,
		"stream_first_p50_ms": stream.firstP50,
		"stream_p50_ms":       stream.p50,
		"stream_p95_ms":       stream.p95,
		"repair_p50_ms":       rep.p50,
		"repair_p95_ms":       rep.p95,
		"rows_per_s":          rowsPerS,
		"max_rss_mb":          out.rssMB,
	}

	layer = map[string]float64{}
	for _, st := range fitStages {
		layer["zeroed.fit."+st+"_ms"] = out.stageMS[st]
		layer["zeroed.fit."+st+"_alloc_mb"] = out.stageAllocMB[st]
	}
	info := out.info
	layer["llm.input_tokens"] = float64(info.Usage.InputTokens)
	layer["llm.output_tokens"] = float64(info.Usage.OutputTokens)
	layer["zeroed.sampled_cells"] = float64(info.SampledCells)
	layer["zeroed.training_cells"] = float64(info.TrainingCells)
	layer["zeroed.augmented_errs"] = float64(info.AugmentedErrs)
	layer["criteria.count"] = float64(info.CriteriaCount)
	layer["model.artifact_mb"] = float64(out.artifactBytes) / (1 << 20)

	spans := tr.layers()
	selfMS := func(name string) float64 {
		if st := spans[name]; st != nil {
			return median(st.selfMS)
		}
		return 0
	}
	perS := func(name string, scale float64) float64 {
		if st := spans[name]; st != nil && st.totMS > 0 {
			return float64(st.units) / scale / (st.totMS / 1e3)
		}
		return 0
	}
	layer["table.ingest_ms"] = selfMS("table.read")
	layer["table.ingest_mb_per_s"] = perS("table.read", 1<<20)
	layer["zeroed.score_ms"] = selfMS("zeroed.score")
	layer["zeroed.score_cells_per_s"] = perS("zeroed.score", 1)
	layer["zeroed.stream_chunk_ms"] = selfMS("zeroed.stream_chunk")
	layer["model.encode_ms"] = selfMS("model.encode")
	layer["model.persist_ms"] = selfMS("model.persist")
	layer["model.decode_ms"] = selfMS("model.decode")
	layer["repair.propose_ms"] = selfMS("repair.propose")
	layer["serve.encode_ms"] = selfMS("serve.encode")

	var fixes, resp int
	for _, b := range out.g.batches {
		fixes += len(b.fixes)
		resp += b.respBytes
	}
	nb := float64(len(out.g.batches))
	layer["repair.fixes"] = float64(fixes) / nb
	layer["serve.resp_kb"] = float64(resp) / nb / 1024
	layer["zeroed.unseen_share"] = out.g.unseenShare()
	for r, name := range routeNames {
		st := out.loop.stats(route(r))
		layer["serve."+name+".requests"] = float64(st.n)
		layer["serve."+name+".failed"] = float64(st.failed)
	}
	for k, v := range out.server {
		layer[k] = v
	}
	for _, name := range []string{"serve.score.server_ms", "serve.stream.server_ms", "serve.repair.server_ms", "serve.score_phase_ms", "serve.repair_phase_ms"} {
		if _, ok := layer[name]; !ok {
			layer[name] = 0 // no server in this workload
		}
	}
	layer["serve.stream_accum_rows"] = float64(out.streamAccumRows)
	layer["bench.rows_per_request"] = float64(o.batchRows())
	layer["bench.distinct_batches"] = nb
	layer["bench.fits"] = float64(len(out.fitS))
	layer["bench.trace_overhead_pct"] = out.loop.traceOverheadPct()
	return e2e, layer
}

// report prints the human-readable account of a run: build identity,
// per-route samples and failures, workload properties, checks.
func report(w io.Writer, o opts, out *outcome, e2e, layer map[string]float64, tr *tracer) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, int(o.seconds.Seconds()), o.trace)
	fmt.Fprintf(w, "build: go=%s pgo=%s GOMAXPROCS=%d nproc=%d", runtime.Version(), o.pgo, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if out.buildInfo != "" {
		fmt.Fprintf(w, " server=%s", out.buildInfo)
	}
	fmt.Fprintln(w)
	clients := o.clients
	if o.workload == "fit-hospital" {
		clients = 1
		fmt.Fprintf(w, "fits: %d (fit_s median over them), digest %s, pinned=%v\n", len(out.fitS), out.digest, out.pinned)
	}
	fmt.Fprintf(w, "loop: closed, %d client(s), %.1fs\n", clients, out.loop.elapsed.Seconds())
	for r, name := range routeNames {
		st := out.loop.stats(route(r))
		fmt.Fprintf(w, "route %-6s attempted=%d failed=%d p50=%.3fms p95=%.3fms\n", name, st.n, st.failed, st.p50, st.p95)
	}
	fmt.Fprintf(w, "workload: rows_per_request=%d stream_rows=%d distinct_batches=%d distinct_streams=%d unseen_share=%.4f\n",
		o.batchRows(), streamBatches*o.batchRows(), len(out.g.batches), len(out.g.streams), out.g.unseenShare())
	fmt.Fprintf(w, "stream accumulator: %d rows at the end (it grows with run length, and max_rss_mb with it)\n", out.streamAccumRows)
	switch {
	case o.trace == 0:
	case o.workload == "fit-hospital":
		sum := layer["model.encode_ms"] + layer["model.persist_ms"]
		if st := tr.layers()["table.read_fit"]; st != nil {
			sum += median(st.selfMS)
		}
		for _, st := range fitStages {
			sum += layer["zeroed.fit."+st+"_ms"]
		}
		fmt.Fprintf(w, "accounting: fit stages + ingest + encode + persist = %.0fms of fit_s %.0fms\n", sum, e2e["fit_s"]*1e3)
	default:
		for _, name := range routeNames {
			p50 := e2e[name+"_p50_ms"]
			fmt.Fprintf(w, "accounting: %s server_ms %.3f vs client p50 %.3f\n", name, layer["serve."+name+".server_ms"], p50)
		}
	}
	for _, p := range out.problems {
		fmt.Fprintln(w, "FAIL:", p)
	}
}
