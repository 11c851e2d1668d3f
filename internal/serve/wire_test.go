package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/serve/verdict"
)

// encodeJSON is the oracle: the bytes json.Encoder writes for v, or its
// error.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// appendScoreResult composes the two halves writeScoreResult encodes with.
func appendScoreResult(r *ScoreResult) ([]byte, error) {
	b, err := appendScoreVerdicts(nil, r)
	if err != nil {
		return nil, err
	}
	return closeScoreResult(b, r.Trace)
}

// checkScoreWire asserts the append encoder renders r exactly as
// json.Encoder does, failing where it fails with the same error.
func checkScoreWire(t *testing.T, name string, r *ScoreResult) {
	t.Helper()
	want, werr := encodeJSON(r)
	got, gerr := appendScoreResult(r)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: ScoreResult error %v, encoding/json %v", name, gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: ScoreResult\n got %s\nwant %s", name, got, want)
	}
}

// checkStreamWire asserts verdict.AppendLines renders the rows exactly as
// json.Encoder renders their streamLines, one after another.
func checkStreamWire(t *testing.T, name string, start, version int, pred [][]bool, scores [][]float64) {
	t.Helper()
	var want []byte
	var werr error
	for i := range pred {
		l := streamLine{Row: start + i, Version: version, Pred: pred[i]}
		if scores != nil {
			l.Scores = scores[i]
		}
		line, err := encodeJSON(l)
		if err != nil {
			werr = err
			break
		}
		want = append(want, line...)
	}
	prefix := []byte("kept;")
	got, gerr := verdict.AppendLines(append([]byte(nil), prefix...), start, version, pred, scores)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: stream error %v, encoding/json %v", name, gerr, werr)
	}
	if werr != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("%s: failed encode left %q, want the buffer at its original length", name, got)
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: stream lines\n got %s\nwant %s", name, got[len(prefix):], want)
	}
}

// wireFloats are the boundaries of encoding/json's float rule: zero and
// negative zero, the smallest subnormal, both sides of the 1e-6 and 1e21
// switches to exponent form, and the largest float below 1.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, 9.99e-7, 1e-6, 0.1, 1 - 0x1p-53, 1, 1e20, 1e21,
	-9.99e-7, -1e21, 1e-7, 1.5e-10, 123456.789, math.MaxFloat64, -math.SmallestNonzeroFloat64,
}

// TestVerdictWireMatchesEncodingJSON pins the append encoder to
// json.Encoder byte for byte on both verdict payloads, including the error
// cases.
func TestVerdictWireMatchesEncodingJSON(t *testing.T) {
	trace := &obs.Node{Name: "POST /v1/models/{id}/score", DurUS: 12,
		Attrs:    map[string]string{"request_id": "r-<&>-1", "z": " "},
		Children: []*obs.Node{{Name: "respond", StartUS: 3}}}
	cases := []struct {
		name   string
		pred   [][]bool
		scores [][]float64
	}{
		{"floats", [][]bool{{true, false, true}, {false}}, [][]float64{wireFloats[:10], wireFloats[10:11]}},
		{"more-floats", [][]bool{{true}}, [][]float64{wireFloats[10:]}},
		{"nil-pred-nil-scores", nil, nil},
		{"empty-pred-empty-scores", [][]bool{}, [][]float64{}},
		{"nil-rows", [][]bool{nil, {true}}, [][]float64{nil, {0.5}}},
		{"empty-rows", [][]bool{{}, {false}}, [][]float64{{}, {0.25}}},
		{"pred-only", [][]bool{{true, true}, {false, false}}, nil},
		{"nan", [][]bool{{true, false}}, [][]float64{{0.5, math.NaN()}}},
		{"inf", [][]bool{{true}}, [][]float64{{math.Inf(1)}}},
		{"neg-inf-second-row", [][]bool{{true}, {false}}, [][]float64{{0.5}, {math.Inf(-1)}}},
	}
	for _, c := range cases {
		for _, r := range []*ScoreResult{
			{ModelID: "m-000001", Attrs: []string{"a", "b"}, Rows: len(c.pred), Flagged: 3, Pred: c.pred, Scores: c.scores, ScoreMS: 7},
			{ModelID: "m-\"<é>\"\xff", Attrs: nil, Pred: c.pred, Scores: c.scores,
				DroppedCols: []string{"extra", "x&y"}, ScoreMS: -1, Trace: trace},
			{Attrs: []string{}, Pred: c.pred, Scores: c.scores, DroppedCols: []string{}},
		} {
			checkScoreWire(t, c.name, r)
		}
		rows := len(c.pred)
		if c.scores != nil && len(c.scores) != rows {
			continue
		}
		checkStreamWire(t, c.name, 0, 1, c.pred, c.scores)
		checkStreamWire(t, c.name+"/no-scores", 41, 3, c.pred, nil)
	}
}

// fuzzRows cuts raw into rows of cols cells: each 8 bytes are one score's
// bits, and the low bit of its first byte the cell's verdict. cols 0 gives
// one empty row.
func fuzzRows(raw []byte, cols int) ([][]bool, [][]float64) {
	if cols == 0 {
		return [][]bool{{}}, [][]float64{{}}
	}
	n := len(raw) / 8 / cols
	pred, scores := make([][]bool, n), make([][]float64, n)
	for i := 0; i < n; i++ {
		pred[i], scores[i] = make([]bool, cols), make([]float64, cols)
		for j := 0; j < cols; j++ {
			cell := raw[(i*cols+j)*8:]
			pred[i][j] = cell[0]&1 == 1
			scores[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(cell))
		}
	}
	return pred, scores
}

// FuzzVerdictWire renders arbitrary score bits, verdicts and model ids
// through the append encoder and encoding/json; the bytes, or the failure,
// must agree.
func FuzzVerdictWire(f *testing.F) {
	bits := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add("m-000001", bits(wireFloats...), uint8(3), 1)
	f.Add("", bits(0.5, math.NaN()), uint8(2), 0)
	f.Add("< >", bits(math.Inf(-1)), uint8(1), -7)
	f.Add("m", []byte{}, uint8(0), 2)
	f.Fuzz(func(t *testing.T, id string, raw []byte, cols uint8, version int) {
		pred, scores := fuzzRows(raw, int(cols%6))
		checkScoreWire(t, "fuzz", &ScoreResult{ModelID: id, Attrs: []string{id}, Rows: len(pred),
			Pred: pred, Scores: scores, DroppedCols: []string{id}, ScoreMS: int64(version)})
		checkStreamWire(t, "fuzz", version, version, pred, scores)
		checkStreamWire(t, "fuzz/no-scores", 0, version, pred, nil)
	})
}

// writeCounter is a ResponseWriter that counts body writes and flushes.
type writeCounter struct {
	header  http.Header
	body    bytes.Buffer
	writes  int
	flushes int
}

func (c *writeCounter) Header() http.Header { return c.header }
func (c *writeCounter) WriteHeader(int)     {}
func (c *writeCounter) Flush()              { c.flushes++ }
func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.body.Write(p)
}

// TestStreamWritesOncePerChunk pins the stream reply's write pattern: one
// body Write and one Flush per chunk, one Write for the summary, and one
// respond span per chunk in the request's trace.
func TestStreamWritesOncePerChunk(t *testing.T) {
	ts, svc := testServer(t, Config{Workers: 2})
	bench := datasets.Hospital(120, 3)
	st := fitHTTPModel(t, ts.URL, benchCSV(t, bench.Dirty), "?seed=3")

	const rows, chunk = 10, 4 // chunks of 4, 4 and 2 rows
	body := rowsCSV(t, st.Attrs, dsRows(bench.Dirty, rows))
	req := httptest.NewRequest(http.MethodPost, "/v1/models/"+st.ID+"/stream?chunk=4", bytes.NewReader(body))
	req.Header.Set("Content-Type", "text/csv")
	cw := &writeCounter{header: http.Header{}}
	svc.Handler().ServeHTTP(cw, req)

	chunks := (rows + chunk - 1) / chunk
	if cw.writes != chunks+1 || cw.flushes != chunks {
		t.Errorf("stream reply made %d writes and %d flushes, want %d and %d", cw.writes, cw.flushes, chunks+1, chunks)
	}
	lines := strings.Split(strings.TrimSuffix(cw.body.String(), "\n"), "\n")
	if len(lines) != rows+1 || !strings.HasPrefix(lines[rows], `{"done":true`) {
		t.Fatalf("stream reply has %d lines ending %q, want %d verdicts and the summary", len(lines), lines[len(lines)-1], rows)
	}

	retained := svc.ring.List()
	if len(retained) == 0 || retained[0].Name != "POST /v1/models/{id}/stream" {
		t.Fatalf("newest retained trace is not the stream request: %+v", retained)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(retained[0].Chrome, &chrome); err != nil {
		t.Fatal(err)
	}
	responds := 0
	for _, e := range chrome.TraceEvents {
		if e.Name == "respond" {
			responds++
		}
	}
	if responds != chunks {
		t.Errorf("stream trace has %d respond spans, want one per chunk (%d)", responds, chunks)
	}
}

// benchVerdicts is a serve-warm sized payload: 400 rows of 20 cells with
// scores spread over the float formats the encoder meets.
func benchVerdicts() ([][]bool, [][]float64) {
	pred, scores := make([][]bool, 400), make([][]float64, 400)
	x := uint64(1)
	for i := range pred {
		pred[i], scores[i] = make([]bool, 20), make([]float64, 20)
		for j := range pred[i] {
			x = x*6364136223846793005 + 1442695040888963407
			s := float64(x>>11) / (1 << 53)
			if j%7 == 0 {
				s *= 1e-7
			}
			pred[i][j], scores[i][j] = s > 0.5, s
		}
	}
	return pred, scores
}

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct{ header http.Header }

func (d discardWriter) Header() http.Header         { return d.header }
func (d discardWriter) WriteHeader(int)             {}
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkWriteScoreResult times the score route's reply write for a
// 100-row, 20-column result.
func BenchmarkWriteScoreResult(b *testing.B) {
	pred, scores := benchVerdicts()
	out := &ScoreResult{ModelID: "m-000001", Attrs: make([]string, 20), Rows: 100,
		Pred: pred[:100], Scores: scores[:100], ScoreMS: 1}
	req := httptest.NewRequest(http.MethodPost, "/v1/models/m-000001/score", nil)
	w := discardWriter{header: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		writeScoreResult(w, req, out)
	}
}

// BenchmarkWriteStreamChunk times encoding one 400-row stream chunk's
// verdict lines into a reused buffer; the encoding_json arm is the
// json.Encoder rendering of the same lines, for scale.
func BenchmarkWriteStreamChunk(b *testing.B) {
	pred, scores := benchVerdicts()
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = verdict.AppendLines(buf[:0], 0, 1, pred, scores); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			for k := range pred {
				if err := enc.Encode(streamLine{Row: k, Version: 1, Pred: pred[k], Scores: scores[k]}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
