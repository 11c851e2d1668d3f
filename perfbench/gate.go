package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/eval"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// The correctness gate. In set-up every distinct request body is scored in
// process with the same public functions the server calls (table.Read,
// Model.ScoreOn, StreamScorer.ScoreChunk, repair.Propose), and the expected
// reply is rendered with the server's own wire types. Every reply in the
// measured loop must then match it byte for byte; JSON renders a float64
// with the shortest digits that round-trip, so equal bytes mean equal score
// bits. A mismatch counts as a failed operation.

// batch is one distinct score or repair body and what it must return.
type batch struct {
	rows      [][]string
	csv       []byte
	truth     [][]bool // ground-truth error mask of rows
	unseen    int      // cells whose value the fit table never held
	pred      [][]bool
	scores    [][]float64
	fixes     []repair.Fix
	scoreSeg  []byte // expected score reply from "rows": up to ,"score_ms":
	repairSeg []byte // expected repair reply, same span
	respBytes int    // size of the whole encoded score reply
}

// streamBody is one distinct stream body: streamBatches consecutive
// batches (wrapping), so every stream chunk is a batch.
type streamBody struct {
	batches []int
	csv     []byte
	lines   []byte // expected verdict lines, final summary line excluded
	rows    int
}

const streamBatches = 4

type gate struct {
	attrs   []string
	batches []*batch
	streams []*streamBody
}

// buildGate cuts src (dirty rows, with clean ground truth) into batches of
// batchRows and computes every expected reply against m. fitVals holds the
// set of values per column of the table m was fitted on.
func buildGate(ctx context.Context, m *zeroed.Model, pool *zeroed.Pool, modelID string,
	dirty, clean *table.Dataset, batchRows int, fitVals []map[string]bool, tr *tracer) (*gate, error) {
	ss, err := zeroed.NewStreamScorer(m, zeroed.StreamConfig{})
	if err != nil {
		return nil, err
	}
	truth, err := table.ErrorMask(dirty, clean)
	if err != nil {
		return nil, err
	}
	g := &gate{attrs: m.Attrs()}
	nb := dirty.NumRows() / batchRows
	for k := 0; k < nb; k++ {
		idx := make([]int, batchRows)
		for i := range idx {
			idx[i] = k*batchRows + i
		}
		b := &batch{truth: truth[k*batchRows : (k+1)*batchRows]}
		sub := dirty.SubsetRows(idx)
		var buf bytes.Buffer
		if err := sub.WriteCSV(&buf); err != nil {
			return nil, err
		}
		b.csv = buf.Bytes()
		for i := range idx {
			row := sub.Row(i)
			b.rows = append(b.rows, row)
			for j, v := range row {
				if !fitVals[j][v] {
					b.unseen++
				}
			}
		}

		sp := tr.begin("table.read", -1, 0)
		ds, err := table.Read("batch", table.FormatCSV, bytes.NewReader(b.csv))
		tr.end(sp, int64(len(b.csv)))
		if err != nil {
			return nil, err
		}
		// The first call fills the model's warm cache with the batch's seen
		// values; the second, timed, is the steady state a server reaches.
		res, err := m.ScoreOn(ctx, pool, ds)
		if err != nil {
			return nil, err
		}
		b.pred, b.scores = res.Pred, res.Scores
		cells := int64(ds.NumCells())
		sp = tr.begin("zeroed.score", -1, 0)
		res, err = m.ScoreOn(ctx, pool, ds)
		tr.end(sp, cells)
		if err != nil {
			return nil, err
		}
		if !sameResult(res, b.pred, b.scores) {
			return nil, fmt.Errorf("batch %d: a second Model.ScoreOn changed the verdicts", k)
		}

		sp = tr.begin("zeroed.stream_chunk", -1, 0)
		cres, _, err := ss.ScoreChunk(ctx, pool, b.rows)
		tr.end(sp, cells)
		if err != nil {
			return nil, err
		}
		if !sameResult(cres, b.pred, b.scores) {
			return nil, fmt.Errorf("batch %d: stream chunk verdicts differ from Model.ScoreOn", k)
		}

		sp = tr.begin("repair.propose", -1, 0)
		b.fixes = repair.New(repair.Config{}).Propose(ds, res.Pred)
		tr.end(sp, int64(len(b.fixes)))

		sr := serve.ScoreResult{ModelID: modelID, Attrs: g.attrs, Rows: len(b.pred),
			Flagged: countTrue(b.pred), Pred: b.pred, Scores: b.scores}
		sp = tr.begin("serve.encode", -1, 0)
		enc, err := json.Marshal(sr)
		tr.end(sp, int64(len(enc)))
		if err != nil {
			return nil, err
		}
		b.respBytes = len(enc)
		if b.scoreSeg, err = segment(enc); err != nil {
			return nil, err
		}
		if b.repairSeg, err = repairSegment(modelID, g.attrs, b); err != nil {
			return nil, err
		}
		g.batches = append(g.batches, b)
	}
	for s := range g.batches {
		body := &streamBody{}
		var csvBuf, lines bytes.Buffer
		csvBuf.Write(g.batches[s].csv[:bytes.IndexByte(g.batches[s].csv, '\n')+1])
		enc := json.NewEncoder(&lines)
		for k := 0; k < streamBatches; k++ {
			bi := (s + k) % len(g.batches)
			b := g.batches[bi]
			body.batches = append(body.batches, bi)
			csvBuf.Write(b.csv[bytes.IndexByte(b.csv, '\n')+1:])
			for i := range b.pred {
				if err := enc.Encode(streamLine{Row: body.rows, Version: 1, Pred: b.pred[i], Scores: b.scores[i]}); err != nil {
					return nil, err
				}
				body.rows++
			}
		}
		body.csv, body.lines = csvBuf.Bytes(), lines.Bytes()
		g.streams = append(g.streams, body)
	}
	return g, nil
}

// streamLine mirrors the server's NDJSON verdict frame field for field.
type streamLine struct {
	Row     int       `json:"row"`
	Version int       `json:"version"`
	Pred    []bool    `json:"pred"`
	Scores  []float64 `json:"scores,omitempty"`
}

// repairSegment renders the repair reply the server must send for b.
func repairSegment(modelID string, attrs []string, b *batch) ([]byte, error) {
	rr := serve.RepairResult{ModelID: modelID, Attrs: attrs, Rows: len(b.rows),
		Flagged: countTrue(b.pred), Repaired: len(b.fixes),
		Changes: make([]serve.RepairChange, 0, len(b.fixes))}
	rr.Table = make([][]string, len(b.rows))
	for i, row := range b.rows {
		rr.Table[i] = slices.Clone(row)
	}
	for _, f := range b.fixes {
		rr.Changes = append(rr.Changes, serve.RepairChange{Row: f.Row, Col: f.Col, Attr: attrs[f.Col],
			Old: f.Old, New: f.New, Strategy: string(f.Strategy)})
		rr.Table[f.Row][f.Col] = f.New
	}
	enc, err := json.Marshal(rr)
	if err != nil {
		return nil, err
	}
	return segment(enc)
}

// segment cuts a score or repair reply down to the part that depends only
// on the model and the body: from "rows": up to ,"score_ms": (the model id
// before it and the timings after it vary).
func segment(reply []byte) ([]byte, error) {
	i := bytes.Index(reply, []byte(`"rows":`))
	j := bytes.LastIndex(reply, []byte(`,"score_ms":`))
	if i < 0 || j < i {
		return nil, fmt.Errorf("reply has no rows..score_ms span: %.120q", reply)
	}
	return reply[i:j], nil
}

// checkStream verifies one stream reply: every verdict line as expected,
// then a summary line reporting all rows done.
func checkStream(reply []byte, want *streamBody) bool {
	if len(reply) < 2 || reply[len(reply)-1] != '\n' {
		return false
	}
	cut := bytes.LastIndexByte(reply[:len(reply)-1], '\n') + 1
	if !bytes.Equal(reply[:cut], want.lines) {
		return false
	}
	var sum struct {
		Done bool `json:"done"`
		Rows int  `json:"rows"`
	}
	return json.Unmarshal(reply[cut:], &sum) == nil && sum.Done && sum.Rows == want.rows
}

func sameResult(res *zeroed.Result, pred [][]bool, scores [][]float64) bool {
	if len(res.Pred) != len(pred) || len(res.Scores) != len(scores) {
		return false
	}
	for i := range pred {
		if !slices.Equal(res.Pred[i], pred[i]) || len(res.Scores[i]) != len(scores[i]) {
			return false
		}
		for j, s := range scores[i] {
			if math.Float64bits(res.Scores[i][j]) != math.Float64bits(s) {
				return false
			}
		}
	}
	return true
}

// digest is a SHA-256 over the verdict mask and the raw score bits.
func digest(res *zeroed.Result) string {
	h := sha256.New()
	var word [8]byte
	for i, row := range res.Pred {
		for j, p := range row {
			bit := uint64(0)
			if p {
				bit = 1
			}
			binary.LittleEndian.PutUint64(word[:], bit)
			h.Write(word[:])
			if i < len(res.Scores) {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(res.Scores[i][j]))
				h.Write(word[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func countTrue(m [][]bool) int {
	n := 0
	for _, row := range m {
		for _, p := range row {
			if p {
				n++
			}
		}
	}
	return n
}

// f1 of the gate's verdicts over every distinct batch, each counted once.
func (g *gate) f1() float64 {
	var pred, truth [][]bool
	for _, b := range g.batches {
		pred = append(pred, b.pred...)
		truth = append(truth, b.truth...)
	}
	return eval.Compute(pred, truth).F1
}

// unseenShare is the share of batch cells whose value the fit table never
// held: the cells that miss every value-keyed cache in scoring.
func (g *gate) unseenShare() float64 {
	unseen, cells := 0, 0
	for _, b := range g.batches {
		unseen += b.unseen
		cells += len(b.rows) * len(g.attrs)
	}
	return float64(unseen) / float64(cells)
}

// columnValues returns the set of values held per column of d.
func columnValues(d *table.Dataset) []map[string]bool {
	out := make([]map[string]bool, d.NumCols())
	for j := range out {
		out[j] = map[string]bool{}
		for i := 0; i < d.NumRows(); i++ {
			out[j][d.Value(i, j)] = true
		}
	}
	return out
}
