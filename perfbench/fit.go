package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// fitConfig is the detector configuration of every fit the benchmark makes,
// in process and over the wire: the paper's defaults with a fixed seed, so
// the data seed alone decides the inputs.
var fitConfig = zeroed.Config{Seed: 1}

// runFit is the fit-hospital workload, the CLI user's path: CSV bytes →
// table.Read → Detector.Fit → model.Encode → model.WriteFileAtomic, then
// model.LoadFile and Model.Score of the fit table for F1. It fits for the
// run's length (at least minFits times), then drives the loaded model
// through the in-process score, stream and repair calls the CLI makes for
// a third of the run's length more.
func runFit(ctx context.Context, o opts, tr *tracer) (*outcome, error) {
	out := &outcome{stageMS: map[string]float64{}, stageAllocMB: map[string]float64{}}
	var bench *datasets.Bench
	var csv []byte
	for i := 0; i < fitSetupReps; i++ {
		t0 := time.Now()
		bench = datasets.Hospital(o.rows, o.seed)
		var buf bytes.Buffer
		if err := bench.Dirty.WriteCSV(&buf); err != nil {
			return nil, err
		}
		csv = buf.Bytes()
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}

	dir, err := os.MkdirTemp(o.out, "fit-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "hospital.zedm")
	pool := zeroed.NewPool(0)

	var (
		loaded *zeroed.Model
		first  string
		stages = map[string][]zeroed.StageTiming{}
	)
	// Fit until the next fit would end past the run's length.
	start := time.Now()
	var last time.Duration
	for i := 0; i < minFits || time.Since(start)+last <= o.seconds; i++ {
		out.attempted++
		root := tr.begin("op.fit", -1, 0)
		t0 := time.Now()
		sp := tr.begin("table.read_fit", root, 0)
		ds, err := table.Read("hospital", table.FormatCSV, bytes.NewReader(csv))
		tr.end(sp, int64(len(csv)))
		if err != nil {
			return nil, err
		}
		sp = tr.begin("zeroed.fit", root, 0)
		m, err := zeroed.New(fitConfig).FitOn(ctx, pool, ds)
		tr.end(sp, int64(ds.NumCells()))
		if err != nil {
			return nil, err
		}
		sp = tr.begin("model.encode", root, 0)
		data, err := model.Encode(m)
		tr.end(sp, int64(len(data)))
		if err != nil {
			return nil, err
		}
		sp = tr.begin("model.persist", root, 0)
		err = model.WriteFileAtomic(path, data)
		tr.end(sp, int64(len(data)))
		if err != nil {
			return nil, err
		}
		out.fitS = append(out.fitS, time.Since(t0).Seconds())
		tr.end(root, 0)
		last = time.Since(t0)

		sp = tr.begin("model.decode", -1, 0)
		loaded, err = model.LoadFile(path)
		tr.end(sp, int64(len(data)))
		if err != nil {
			return nil, err
		}
		sp = tr.begin("zeroed.score_table", -1, 0)
		res, err := loaded.ScoreOn(ctx, pool, ds)
		tr.end(sp, int64(ds.NumCells()))
		if err != nil {
			return nil, err
		}
		fresh, err := m.ScoreOn(ctx, pool, ds)
		if err != nil {
			return nil, err
		}
		met, err := eval.ComputeAgainst(res.Pred, bench.Dirty, bench.Clean)
		if err != nil {
			return nil, err
		}
		d := digest(res)
		switch {
		case d != digest(fresh):
			out.problem("fit %d: verdicts changed across encode/persist/load", i)
		case i > 0 && d != first:
			out.problem("fit %d: verdict digest %s differs from the first fit's %s", i, d, first)
		case i > 0 && (m.Info().Usage.Total() != out.tokens || met.F1 != out.f1):
			out.problem("fit %d: tokens or f1 differ from the first fit's", i)
		default:
			first, out.tokens, out.f1, out.info = d, m.Info().Usage.Total(), met.F1, m.Info()
			out.artifactBytes = len(data)
			for _, st := range m.Info().Stages {
				stages[st.Name] = append(stages[st.Name], st)
			}
			continue
		}
		out.failed++
	}
	out.digest = first
	for _, name := range fitStages {
		var secs, alloc []float64
		for _, st := range stages[name] {
			secs = append(secs, st.Seconds*1e3)
			alloc = append(alloc, float64(st.AllocBytes)/(1<<20))
		}
		out.stageMS[name], out.stageAllocMB[name] = median(secs), median(alloc)
	}
	if err := checkPin(o, out); err != nil {
		out.problem("%v", err)
		out.failed++
	}

	// The CLI's score, stream and repair calls on the loaded artifact, over
	// batches of the fit table.
	g, err := buildGate(ctx, loaded, pool, "", bench.Dirty, bench.Clean, o.batchRows(), columnValues(bench.Dirty), tr)
	if err != nil {
		return nil, err
	}
	ss, err := zeroed.NewStreamScorer(loaded, zeroed.StreamConfig{})
	if err != nil {
		return nil, err
	}
	out.g = g
	ip := &inproc{ctx: ctx, m: loaded, pool: pool, ss: ss, g: g, chunk: o.batchRows()}
	out.loop = runLoop(ip, 1, [3]int{len(g.batches), len(g.streams), len(g.batches)}, o.seconds/3, maxLoop, o.minSamples, tr)
	gauges, _ := ss.Gauges()
	out.streamAccumRows = min(gauges.Rows, maxAccumRows)
	out.rssMB, err = peakRSSMB("self")
	return out, err
}

// inproc executes requests in this process, the way the zeroed CLI does:
// table.Read → Model.ScoreOn (→ repair.Propose), and a CSV row source fed
// chunk by chunk through StreamScorer.ScoreChunk.
type inproc struct {
	ctx   context.Context
	m     *zeroed.Model
	pool  *zeroed.Pool
	ss    *zeroed.StreamScorer
	g     *gate
	chunk int
}

func (p *inproc) do(r route, k int, tr *tracer, lane int) sample {
	start := time.Now()
	root := tr.begin("op."+routeNames[r], -1, lane)
	var s sample
	switch r {
	case routeScore, routeRepair:
		b := p.g.batches[k]
		sp := tr.begin("table.read", root, lane)
		ds, err := table.Read("batch", table.FormatCSV, bytes.NewReader(b.csv))
		tr.end(sp, int64(len(b.csv)))
		if err != nil {
			break
		}
		sp = tr.begin("zeroed.score", root, lane)
		res, err := p.m.ScoreOn(p.ctx, p.pool, ds)
		tr.end(sp, int64(ds.NumCells()))
		s.ok = err == nil && sameResult(res, b.pred, b.scores)
		if s.ok && r == routeRepair {
			sp = tr.begin("repair.propose", root, lane)
			fixes := repair.New(repair.Config{}).Propose(ds, res.Pred)
			tr.end(sp, int64(len(fixes)))
			s.ok = slices.Equal(fixes, b.fixes)
		}
		if s.ok {
			s.rows = len(b.rows)
		}
	case routeStream:
		body := p.g.streams[k]
		src, err := table.NewSource(table.FormatCSV, bytes.NewReader(body.csv))
		s.ok = err == nil
		chunks := 0
		for s.ok {
			rows, rerr := src.Next(p.chunk)
			if len(rows) > 0 {
				if chunks == len(body.batches) {
					s.ok = false
					break
				}
				b := p.g.batches[body.batches[chunks]]
				sp := tr.begin("zeroed.stream_chunk", root, lane)
				res, _, err := p.ss.ScoreChunk(p.ctx, p.pool, rows)
				tr.end(sp, int64(len(rows)*len(p.g.attrs)))
				s.ok = err == nil && sameResult(res, b.pred, b.scores)
				if chunks == 0 {
					s.firstMS = ms(time.Since(start))
				}
				chunks++
			}
			if rerr == io.EOF {
				break
			}
			s.ok = s.ok && rerr == nil
		}
		if s.ok = s.ok && chunks == len(body.batches); s.ok {
			s.rows = body.rows
		}
	}
	tr.end(root, 0)
	s.ms = ms(time.Since(start))
	return s
}

// pin is the checked-in behaviour of fit-hospital at one data seed and the
// default size: what the detector outputs must not drift unless a change
// means it to and updates pins.json.
type pin struct {
	Digest string  `json:"digest"`
	Tokens int64   `json:"tokens"`
	F1     float64 `json:"f1"`
}

// checkPin compares the run with pins.json. With -pin it records the run
// there instead. Seeds without a pin, and other sizes, are checked only for
// agreement between the run's own fits.
func checkPin(o opts, out *outcome) error {
	if o.rows != defaultRows {
		return nil
	}
	pins := map[string]pin{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	key := fmt.Sprint(o.seed)
	got := pin{Digest: out.digest, Tokens: out.tokens, F1: out.f1}
	if o.pin != "" {
		pins[key] = got
		data, err := json.MarshalIndent(pins, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(o.pin, append(data, '\n'), 0o644)
	}
	want, ok := pins[key]
	out.pinned = ok
	if ok && want != got {
		return fmt.Errorf("seed %s: got digest %s, %d tokens, f1 %v; pins.json has %s, %d, %v",
			key, got.Digest, got.Tokens, got.F1, want.Digest, want.Tokens, want.F1)
	}
	return nil
}
