// Command zeroed runs error detection on a tabular dataset. It detects
// with the ZeroED pipeline by default or any of the six baselines via
// -method, and reports precision/recall/F1 when a clean ground-truth file
// is given.
//
// Usage:
//
//	zeroed -dirty data.csv [-clean truth.csv] [-method zeroed] [-out mask.csv]
//
// Inputs may be CSV or NDJSON (one JSON array or object per line, first
// line the header): the format is auto-detected from the file extension
// (.ndjson/.jsonl/.json select NDJSON) or forced with -format. With
// -dataset NAME (-dirty omitted), a built-in synthetic benchmark is
// generated instead, e.g. -dataset Hospital.
//
// Scaling knobs (ZeroED only): -workers bounds the shared worker pool,
// -shards splits the scoring pass into row shards; both leave results
// bit-identical and change only wall-clock. -batch detects several inputs
// concurrently over one pool: either a comma-separated list of dirty CSVs,
// or (with -dataset) a replica count, generating the replicas at seeds
// seed..seed+n-1 (every replica is detected with the same -seed config).
//
// Model artifacts (ZeroED only): -model-out FILE fits, persists the fitted
// model as a versioned artifact, and scores with it; -model-in FILE skips
// fitting entirely and scores the input with a previously saved artifact —
// verdicts and scores are bit-identical to the run that produced it. Saves
// commit atomically (temp file + fsync + rename), so a crash mid-save
// leaves the previous artifact intact, never a torn file:
//
//	zeroed -dataset Hospital -model-out hospital.zedm
//	zeroed -dirty fresh.csv -model-in hospital.zedm -out mask.csv
//
// A -model-in input may carry extra columns or a permuted header: it is
// projected onto the model's schema before scoring (extra columns are
// dropped and reported; missing schema columns are an error).
//
// Repair (ZeroED and baselines): -repair FILE applies the repair
// strategies (FD-implied values, typo correction, numeric medians,
// dominant modes) to the flagged cells and writes the corrected table;
// -repair-log FILE additionally writes one JSON line per changed cell
// (row, col, attr, old, new, strategy). Combined with -model-in this is a
// score-only detect→repair pass — no refit — bit-identical to the
// service's POST /v1/models/{id}/repair on the same artifact and bytes:
//
//	zeroed -dirty fresh.csv -model-in hospital.zedm -repair fixed.csv -repair-log changes.ndjson
//
// Streaming (ZeroED only): -stream scores -dirty (or stdin with "-") chunk
// by chunk against -model-in, emitting one JSON verdict line per row;
// verdicts are chunk-invariant. With -drift-threshold T, drifted streams
// refit the model in place on the accumulated rows and continue on the
// successor (saved to -model-out when given):
//
//	zeroed -stream -model-in hospital.zedm -dirty feed.csv -drift-threshold 0.3
//
// Profiling: -cpuprofile FILE records a pprof CPU profile over the whole
// run, -memprofile FILE writes a post-run heap profile, so hot-path work
// is measurable without editing code:
//
//	zeroed -dataset Tax -size 20000 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// Tracing: -trace FILE records a span tree over the whole run — input
// read, every fit stage, the sharded scoring pass, repair, output writes —
// and saves it as Chrome trace_event JSON, loadable in chrome://tracing or
// Perfetto. Tracing is a pure observer: verdicts and score bits are
// identical with and without it:
//
//	zeroed -dataset Hospital -trace trace.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/knowledge"
	"repro/internal/llm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// runOpts carries the parsed command line.
type runOpts struct {
	dirtyPath  string
	cleanPath  string
	format     string
	dataset    string
	size       int
	method     string
	model      string
	labelRate  float64
	corrK      int
	seed       int64
	workers    int
	shards     int
	batch      string
	outPath    string
	repairOut  string
	repairLog  string
	modelOut   string
	modelIn    string
	cpuProfile string
	memProfile string
	tracePath  string

	stream         bool
	streamChunk    int
	driftThreshold float64
	driftMinRows   int
}

func main() {
	var o runOpts
	flag.StringVar(&o.dirtyPath, "dirty", "", "path to the dirty CSV (header row required)")
	flag.StringVar(&o.cleanPath, "clean", "", "optional path to the clean ground-truth CSV for scoring")
	flag.StringVar(&o.format, "format", "", "ingest format of -dirty and the -stream input: csv or ndjson (default: auto-detect from the file extension)")
	flag.StringVar(&o.dataset, "dataset", "", "generate a built-in benchmark instead of reading CSVs (Hospital, Flights, Beers, Rayyan, Billionaire, Movies, Tax)")
	flag.IntVar(&o.size, "size", 0, "tuple count for -dataset (0 = Table II default)")
	flag.StringVar(&o.method, "method", "zeroed", "detector: zeroed, dboost, nadeef, katara, raha, activeclean, fmed")
	flag.StringVar(&o.model, "model", "Qwen2.5-72b", "simulated LLM profile for zeroed/fmed")
	flag.Float64Var(&o.labelRate, "label-rate", 0.05, "ZeroED LLM label rate")
	flag.IntVar(&o.corrK, "corr", 2, "ZeroED correlated attribute count")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.workers, "workers", 0, "ZeroED worker-pool size (0 = GOMAXPROCS); results are identical for any value")
	flag.IntVar(&o.shards, "shards", 0, "ZeroED scoring-shard count (0 = auto); results are identical for any value")
	flag.StringVar(&o.batch, "batch", "", "detect a batch over one shared pool: comma-separated dirty CSVs, or a replica count with -dataset (replicas generated at seeds seed..seed+n-1)")
	flag.StringVar(&o.outPath, "out", "", "optional path to write the predicted error mask as CSV")
	flag.StringVar(&o.repairOut, "repair", "", "optional path to write a repaired copy of the data as CSV")
	flag.StringVar(&o.repairLog, "repair-log", "", "optional path to write the repair change log as JSON lines (one object per changed cell; requires -repair)")
	flag.StringVar(&o.modelOut, "model-out", "", "fit and write the model artifact to this path, then score with it (ZeroED only)")
	flag.StringVar(&o.modelIn, "model-in", "", "skip fitting: load a model artifact and score the input with it (ZeroED only; pipeline flags like -seed and -label-rate are taken from the artifact)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile (post-run, after GC) to this file")
	flag.StringVar(&o.tracePath, "trace", "", "write a Chrome trace_event JSON trace of the run to this file (open in chrome://tracing; results are bit-identical with tracing on or off)")
	flag.BoolVar(&o.stream, "stream", false, "streaming mode: score -dirty (or stdin with '-') chunk by chunk against -model-in, one JSON verdict line per row")
	flag.IntVar(&o.streamChunk, "stream-chunk", 256, "rows per streaming chunk (verdicts are chunk-invariant; latency knob only)")
	flag.Float64Var(&o.driftThreshold, "drift-threshold", 0, "streaming drift level that triggers an in-place refit on the accumulated rows (0 = never refit)")
	flag.IntVar(&o.driftMinRows, "drift-min-rows", 256, "minimum streamed rows before the drift threshold may trip")
	flag.Parse()

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zeroed: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "zeroed: cpuprofile:", err)
			os.Exit(1)
		}
	}

	ctx := context.Background()
	var tr *obs.Trace
	if o.tracePath != "" {
		obs.SetEnabled(true)
		ctx, tr = obs.NewTrace(ctx, "zeroed")
	}

	err := run(ctx, o)

	if o.cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if tr != nil {
		tr.Finish()
		if terr := writeTrace(o.tracePath, tr); terr != nil {
			fmt.Fprintln(os.Stderr, "zeroed: trace:", terr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "zeroed: wrote trace (%d spans, %v) to %s\n",
			tr.Spans(), tr.Duration().Round(1e6), o.tracePath)
	}
	if o.memProfile != "" {
		f, merr := os.Create(o.memProfile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "zeroed: memprofile:", merr)
			os.Exit(1)
		}
		runtime.GC() // materialize the steady-state heap
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintln(os.Stderr, "zeroed: memprofile:", merr)
			os.Exit(1)
		}
		f.Close()
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "zeroed:", err)
		os.Exit(1)
	}
}

// writeTrace saves a finished trace as Chrome trace_event JSON.
func writeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (o runOpts) zeroedConfig() zeroed.Config {
	return zeroed.Config{
		LabelRate: o.labelRate, CorrK: o.corrK, Seed: o.seed,
		Workers: o.workers, Shards: o.shards,
	}
}

func run(ctx context.Context, o runOpts) error {
	profile, ok := llm.ProfileByName(o.model)
	if !ok {
		return fmt.Errorf("unknown model %q", o.model)
	}
	if o.format != "" && o.format != table.FormatCSV && o.format != table.FormatNDJSON {
		return fmt.Errorf("unknown -format %q (want %s or %s)", o.format, table.FormatCSV, table.FormatNDJSON)
	}
	if o.repairLog != "" && o.repairOut == "" {
		return fmt.Errorf("-repair-log requires -repair (there is no change log without a repair pass)")
	}
	if o.modelIn != "" && o.modelOut != "" && !o.stream {
		return fmt.Errorf("-model-in and -model-out cannot be combined (except with -stream, where -model-out receives the refit successor)")
	}
	if (o.modelIn != "" || o.modelOut != "") && strings.ToLower(o.method) != "zeroed" {
		return fmt.Errorf("-model-in/-model-out support only -method zeroed")
	}
	if o.stream {
		switch {
		case strings.ToLower(o.method) != "zeroed":
			return fmt.Errorf("-stream supports only -method zeroed")
		case o.modelIn == "":
			return fmt.Errorf("-stream requires -model-in (fit one first with -model-out)")
		case o.batch != "":
			return fmt.Errorf("-stream cannot be combined with -batch")
		case o.cleanPath != "" || o.outPath != "" || o.repairOut != "":
			return fmt.Errorf("-stream cannot be combined with -clean, -out, or -repair")
		case o.repairLog != "":
			return fmt.Errorf("-stream cannot be combined with -repair-log")
		}
		return runStream(ctx, o)
	}
	if o.batch != "" {
		// Flags that only apply to single-dataset runs would be silently
		// ignored in batch mode; reject the combination instead.
		for _, c := range []struct {
			name string
			set  bool
		}{
			{"-dirty", o.dirtyPath != ""},
			{"-clean", o.cleanPath != ""},
			{"-format", o.format != ""},
			{"-out", o.outPath != ""},
			{"-repair", o.repairOut != ""},
			{"-repair-log", o.repairLog != ""},
			{"-model-out", o.modelOut != ""},
			{"-model-in", o.modelIn != ""},
		} {
			if c.set {
				return fmt.Errorf("%s cannot be combined with -batch", c.name)
			}
		}
		return runBatch(ctx, o, profile)
	}

	var dirty, clean *table.Dataset
	var kb *knowledge.Base
	var fdPairs [][2]int

	_, readSpan := obs.Start(ctx, "read_input")
	switch {
	case o.dataset != "":
		gen, err := datasetGen(o.dataset)
		if err != nil {
			readSpan.End()
			return err
		}
		b := gen(o.size, o.seed)
		dirty, clean, kb, fdPairs = b.Dirty, b.Clean, b.KB, b.FDPairs
		rate, err := b.ErrorRate()
		if err != nil {
			readSpan.End()
			return err
		}
		fmt.Printf("generated %s: %d tuples x %d attributes, %.2f%% cell errors\n",
			b.Name, dirty.NumRows(), dirty.NumCols(), 100*rate)
	case o.dirtyPath != "":
		var err error
		dirty, err = table.ReadFile("input", o.dirtyPath, o.format)
		if err != nil {
			readSpan.End()
			return err
		}
		if o.cleanPath != "" {
			clean, err = table.ReadFile("truth", o.cleanPath, "")
			if err != nil {
				readSpan.End()
				return err
			}
		}
		kb = knowledge.NewBase()
	default:
		readSpan.End()
		return fmt.Errorf("either -dirty, -dataset, or -batch is required")
	}
	readSpan.SetInt("rows", int64(dirty.NumRows()))
	readSpan.End()

	var pred [][]bool
	switch strings.ToLower(o.method) {
	case "zeroed":
		cfg := o.zeroedConfig()
		cfg.Profile = profile
		det := zeroed.New(cfg)
		switch {
		case o.modelIn != "":
			// Score-only: load the fitted artifact and run the cheap phase.
			// The input header may be a permutation or superset of the model
			// schema — it is projected onto the schema before scoring, like
			// an upload to the service's score endpoint.
			_, loadSpan := obs.Start(ctx, "model.load")
			m, err := model.LoadFile(o.modelIn)
			loadSpan.End()
			if err != nil {
				return err
			}
			m.SetParallelism(o.workers, o.shards)
			proj, mapping, err := table.Project(dirty, m.Attrs())
			if err != nil {
				return err
			}
			if len(mapping.Dropped) > 0 {
				fmt.Printf("dropped %d input columns outside the model schema: %s\n",
					len(mapping.Dropped), strings.Join(mapping.Dropped, ", "))
			}
			dirty = proj
			if clean != nil {
				if clean, _, err = table.Project(clean, m.Attrs()); err != nil {
					return fmt.Errorf("projecting -clean onto the model schema: %w", err)
				}
			}
			res, err := m.ScoreOn(ctx, nil, dirty)
			if err != nil {
				return err
			}
			pred = res.Pred
			fmt.Printf("scored %d rows with model %s (fitted on %d rows, seed %d) in %v — no refit\n",
				dirty.NumRows(), o.modelIn, m.FitRows(), m.Config().Seed, res.Runtime.Round(1e6))
		case o.modelOut != "":
			// Fit, persist the artifact, then score with the fitted model.
			m, err := det.FitOn(ctx, nil, dirty)
			if err != nil {
				return err
			}
			_, saveSpan := obs.Start(ctx, "model.save")
			err = model.SaveFile(o.modelOut, m)
			saveSpan.End()
			if err != nil {
				return err
			}
			info := m.Info()
			fmt.Printf("ZeroED: sampled %d cells, trained on %d cells (%d augmented), %d criteria\n",
				info.SampledCells, info.TrainingCells, info.AugmentedErrs, info.CriteriaCount)
			fmt.Printf("LLM usage: %d calls, %d input + %d output tokens; fit runtime %v\n",
				info.Usage.Calls, info.Usage.InputTokens, info.Usage.OutputTokens, info.FitRuntime.Round(1e6))
			res, err := m.ScoreOn(ctx, nil, dirty)
			if err != nil {
				return err
			}
			pred = res.Pred
			if fi, err := os.Stat(o.modelOut); err == nil {
				fmt.Printf("wrote model to %s (%d bytes); score-only pass took %v\n",
					o.modelOut, fi.Size(), res.Runtime.Round(1e6))
			}
		default:
			res, err := det.DetectOn(ctx, nil, dirty)
			if err != nil {
				return err
			}
			pred = res.Pred
			fmt.Printf("ZeroED: sampled %d cells, trained on %d cells (%d augmented), %d criteria\n",
				res.SampledCells, res.TrainingCells, res.AugmentedErrs, res.CriteriaCount)
			fmt.Printf("LLM usage: %d calls, %d input + %d output tokens; runtime %v\n",
				res.Usage.Calls, res.Usage.InputTokens, res.Usage.OutputTokens, res.Runtime.Round(1e6))
		}
	default:
		m, err := baselineByName(o.method, profile, kb, fdPairs, dirty, clean)
		if err != nil {
			return err
		}
		pred, err = m.Detect(dirty)
		if err != nil {
			return err
		}
	}

	flagged := 0
	for i := range pred {
		for j := range pred[i] {
			if pred[i][j] {
				flagged++
			}
		}
	}
	fmt.Printf("flagged %d of %d cells (%.2f%%)\n", flagged, dirty.NumCells(),
		100*float64(flagged)/float64(dirty.NumCells()))

	if clean != nil {
		m, err := eval.ComputeAgainst(pred, dirty, clean)
		if err != nil {
			return err
		}
		fmt.Printf("precision %.3f, recall %.3f, F1 %.3f\n", m.Precision, m.Recall, m.F1)
	}

	if o.repairOut != "" {
		_, repSpan := obs.Start(ctx, "repair.apply")
		repaired, fixes := repair.New(repair.Config{}).Apply(dirty, pred)
		repSpan.SetInt("changes", int64(len(fixes)))
		repSpan.End()
		if err := repaired.WriteCSVFile(o.repairOut); err != nil {
			return err
		}
		fmt.Printf("applied %d repairs, wrote repaired data to %s\n", len(fixes), o.repairOut)
		if o.repairLog != "" {
			if err := writeRepairLog(o.repairLog, dirty.Attrs, fixes); err != nil {
				return err
			}
			fmt.Println("wrote repair change log to", o.repairLog)
		}
		if clean != nil {
			before, _ := table.ErrorRate(dirty, clean)
			after, _ := table.ErrorRate(repaired, clean)
			fmt.Printf("error rate: %.4f -> %.4f\n", before, after)
		}
	}

	if o.outPath != "" {
		_, outSpan := obs.Start(ctx, "write_out")
		mask := table.New("mask", dirty.Attrs)
		for i := range pred {
			row := make([]string, len(pred[i]))
			for j, p := range pred[i] {
				if p {
					row[j] = "1"
				} else {
					row[j] = "0"
				}
			}
			mask.MustAppendRow(row)
		}
		err := mask.WriteCSVFile(o.outPath)
		outSpan.End()
		if err != nil {
			return err
		}
		fmt.Println("wrote mask to", o.outPath)
	}
	return nil
}

// writeRepairLog writes one JSON line per applied fix — the same fields,
// in the same order, as the service's repair change log, so a served
// repair and a CLI repair on the same artifact and bytes diff empty.
func writeRepairLog(path string, attrs []string, fixes []repair.Fix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	type change struct {
		Row      int    `json:"row"`
		Col      int    `json:"col"`
		Attr     string `json:"attr"`
		Old      string `json:"old"`
		New      string `json:"new"`
		Strategy string `json:"strategy"`
	}
	for _, fx := range fixes {
		if err := enc.Encode(change{
			Row: fx.Row, Col: fx.Col, Attr: attrs[fx.Col],
			Old: fx.Old, New: fx.New, Strategy: string(fx.Strategy),
		}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// runStream scores rows chunk by chunk against a saved model artifact,
// writing one JSON verdict line per row to stdout — the CLI twin of the
// service's POST /v1/models/{id}/stream. The input decodes through the
// shared table.RowSource layer (CSV or NDJSON, -format or extension
// auto-detect) and its header may be a permutation or superset of the
// model schema. Verdicts are chunk-invariant, so -stream-chunk only trades
// latency. With -drift-threshold set, a tripped drift gauge refits the
// model in place on the rows accumulated so far (synchronously — this is a
// CLI, not a server); the successor scores all later chunks and is saved
// to -model-out when given.
func runStream(ctx context.Context, o runOpts) error {
	_, loadSpan := obs.Start(ctx, "model.load")
	m, err := model.LoadFile(o.modelIn)
	loadSpan.End()
	if err != nil {
		return err
	}
	m.SetParallelism(o.workers, o.shards)
	ss, err := zeroed.NewStreamScorer(m, zeroed.StreamConfig{
		DriftThreshold: o.driftThreshold,
		DriftMinRows:   o.driftMinRows,
	})
	if err != nil {
		return err
	}
	attrs := m.Attrs()

	var in io.Reader
	format := o.format
	switch {
	case o.dataset != "":
		gen, err := datasetGen(o.dataset)
		if err != nil {
			return err
		}
		b := gen(o.size, o.seed)
		var buf strings.Builder
		if err := b.Dirty.WriteCSV(&buf); err != nil {
			return err
		}
		in = strings.NewReader(buf.String())
		format = table.FormatCSV
	case o.dirtyPath == "" || o.dirtyPath == "-":
		in = os.Stdin
		if format == "" {
			format = table.FormatCSV
		}
	default:
		f, err := os.Open(o.dirtyPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
		if format == "" {
			format = table.FormatForPath(o.dirtyPath)
		}
	}

	raw, err := table.NewSource(format, in)
	if err != nil {
		return err
	}
	src, mapping, err := table.MapSource(attrs, raw)
	if err != nil {
		return err
	}
	if len(mapping.Dropped) > 0 {
		fmt.Fprintf(os.Stderr, "zeroed: dropping %d stream columns outside the model schema: %s\n",
			len(mapping.Dropped), strings.Join(mapping.Dropped, ", "))
	}

	enc := json.NewEncoder(os.Stdout)
	type verdict struct {
		Row     int       `json:"row"`
		Version int       `json:"version"`
		Pred    []bool    `json:"pred"`
		Scores  []float64 `json:"scores"`
	}
	refits := 0
	rows, st, err := ss.ScoreSource(ctx, nil, src, o.streamChunk,
		func(start int, res *zeroed.Result, cst zeroed.ChunkStatus) error {
			for i := range res.Pred {
				if err := enc.Encode(verdict{Row: start + i, Version: cst.Version, Pred: res.Pred[i], Scores: res.Scores[i]}); err != nil {
					return err
				}
			}
			if cst.ShouldRefit && ss.BeginRefit() {
				fmt.Fprintf(os.Stderr, "zeroed: drift tripped at row %d (unseen %.3f, shift %.3f); refitting on %d accumulated rows\n",
					start+len(res.Pred), cst.Drift.UnseenRate, cst.Drift.Shift, cst.Drift.Rows)
				m2, err := ss.Refit(ctx, nil)
				if err != nil {
					fmt.Fprintf(os.Stderr, "zeroed: refit failed, keeping the current model: %v\n", err)
					ss.AbortRefit()
					return nil
				}
				if o.modelOut != "" {
					if err := model.SaveFile(o.modelOut, m2); err != nil {
						ss.AbortRefit()
						return err
					}
				}
				if err := ss.Install(m2); err != nil {
					return err
				}
				refits++
				l := m2.Lineage()
				fmt.Fprintf(os.Stderr, "zeroed: hot-swapped to model version %d (refit on %d rows)\n", l.Version, l.RefitRows)
			}
			return nil
		})
	if err != nil {
		return err
	}
	drift, version := ss.Gauges()
	if rows > 0 {
		drift, version = st.Drift, st.Version
	}
	fmt.Fprintf(os.Stderr, "zeroed: streamed %d rows, model version %d, %d refits (unseen %.3f, shift %.3f)\n",
		rows, version, refits, drift.UnseenRate, drift.Shift)
	return nil
}

// runBatch detects several inputs concurrently over one shared worker pool
// (zeroed.DetectBatch). The batch is either a replica count over -dataset
// (seeds seed..seed+n-1) or a comma-separated list of dirty CSV paths,
// each loaded through the chunked CSV reader.
func runBatch(ctx context.Context, o runOpts, profile llm.Profile) error {
	if strings.ToLower(o.method) != "zeroed" {
		return fmt.Errorf("-batch supports only -method zeroed")
	}
	var ds []*table.Dataset
	var cleans []*table.Dataset // parallel to ds; nil entries when unscored

	if n, err := strconv.Atoi(o.batch); err == nil {
		if o.dataset == "" {
			return fmt.Errorf("-batch with a replica count requires -dataset")
		}
		if n < 1 {
			return fmt.Errorf("-batch replica count must be >= 1, got %d", n)
		}
		gen, err := datasetGen(o.dataset)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			seed := o.seed + int64(i)
			b := gen(o.size, seed)
			// Distinguish the otherwise identically named replicas in the
			// per-dataset result lines.
			b.Dirty.Name = fmt.Sprintf("%s@seed%d", b.Name, seed)
			ds = append(ds, b.Dirty)
			cleans = append(cleans, b.Clean)
		}
		fmt.Printf("generated %d %s replicas (seeds %d..%d)\n", n, o.dataset, o.seed, o.seed+int64(n)-1)
	} else {
		if o.dataset != "" {
			return fmt.Errorf("-dataset cannot be combined with a -batch CSV list (use a replica count, e.g. -batch 4)")
		}
		for _, path := range strings.Split(o.batch, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			d, err := table.ReadFile(path, path, "")
			if err != nil {
				return err
			}
			ds = append(ds, d)
			cleans = append(cleans, nil)
		}
		if len(ds) == 0 {
			return fmt.Errorf("-batch lists no CSV paths")
		}
	}

	cfg := o.zeroedConfig()
	cfg.Profile = profile
	results, err := zeroed.New(cfg).DetectBatch(ctx, ds)
	if err != nil {
		return err
	}
	var usage llm.Usage
	for i, res := range results {
		flagged := 0
		for _, row := range res.Pred {
			for _, p := range row {
				if p {
					flagged++
				}
			}
		}
		line := fmt.Sprintf("%-24s %d rows, flagged %d of %d cells (%.2f%%), %v",
			ds[i].Name, ds[i].NumRows(), flagged, ds[i].NumCells(),
			100*float64(flagged)/float64(ds[i].NumCells()), res.Runtime.Round(1e6))
		if cleans[i] != nil {
			m, err := eval.ComputeAgainst(res.Pred, ds[i], cleans[i])
			if err != nil {
				return err
			}
			line += fmt.Sprintf(", P=%.3f R=%.3f F1=%.3f", m.Precision, m.Recall, m.F1)
		}
		fmt.Println(line)
		usage.Add(res.Usage)
	}
	fmt.Printf("batch of %d: %d LLM calls, %d input + %d output tokens\n",
		len(ds), usage.Calls, usage.InputTokens, usage.OutputTokens)
	return nil
}

// datasetGen resolves a built-in benchmark generator by name.
func datasetGen(name string) (datasets.Generator, error) {
	gen := datasets.ByName(name)
	if gen == nil {
		return nil, fmt.Errorf("unknown dataset %q (have %s)", name, strings.Join(datasets.Names(), ", "))
	}
	return gen, nil
}

func baselineByName(name string, profile llm.Profile, kb *knowledge.Base, fdPairs [][2]int, dirty, clean *table.Dataset) (baselines.Method, error) {
	var oracle baselines.LabelOracle
	if clean != nil {
		mask, err := table.ErrorMask(dirty, clean)
		if err != nil {
			return nil, err
		}
		oracle = func(row int) []bool { return mask[row] }
	}
	switch strings.ToLower(name) {
	case "dboost":
		return baselines.NewDBoost(), nil
	case "nadeef":
		return baselines.NewNadeef(fdPairs), nil
	case "katara":
		return baselines.NewKatara(kb), nil
	case "raha":
		if oracle == nil {
			return nil, fmt.Errorf("raha needs -clean (it consumes human labels)")
		}
		return baselines.NewRaha(oracle), nil
	case "activeclean":
		if oracle == nil {
			return nil, fmt.Errorf("activeclean needs -clean (it consumes human labels)")
		}
		return baselines.NewActiveClean(oracle), nil
	case "fmed", "fm_ed":
		return baselines.NewFMED(llm.NewClient(profile), kb), nil
	default:
		return nil, fmt.Errorf("unknown method %q", name)
	}
}
