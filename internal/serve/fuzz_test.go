package serve

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/nn"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// FuzzDetect drives arbitrary small CSV bytes through the full
// request-reachable path — boundary ingestion (limits, arity validation)
// followed by an end-to-end DetectOn — and asserts the service robustness
// contract: every input yields an error or a result, never a panic. The
// engine configuration is shrunk (tiny MLP, one worker) so individual
// executions stay fast; the code paths exercised are the same ones a real
// job runs.
func FuzzDetect(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n3,4\n"))
	f.Add([]byte("a\nx\n"))
	f.Add([]byte("name,age\nalice,30\nbob,-1\nalice,\n"))
	f.Add([]byte("a,b\n\"q\"\"x\",2\n,\n"))
	f.Add([]byte("h\n" + "0\n0\n0\n0\n0\n0\n0\n0\n"))
	f.Add([]byte("x,y,z\n1,2,3\n1,2,3\n4,5,6\n7,8,9\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip("cap input size to keep executions fast")
		}
		src, err := table.NewCSVSource(bytes.NewReader(data))
		if err != nil {
			return // rejected at the boundary: exactly the contract
		}
		if checkWidth(src, 6) != nil {
			return
		}
		ds, err := ingestSource(table.NewStream("fuzz", src), 40)
		if err != nil {
			return
		}
		cfg := zeroed.Config{
			Seed:     1,
			Workers:  1,
			EmbedDim: 8,
			MLP:      nn.Config{Hidden1: 4, Hidden2: 3, Epochs: 2, BatchSize: 8, Seed: 1},
		}
		// Error or result are both fine; a panic fails the fuzz run.
		if _, err := zeroed.New(cfg).DetectOn(context.Background(), nil, ds); err != nil {
			t.Logf("detect error (acceptable): %v", err)
		}
	})
}

// FuzzStreamNDJSON throws arbitrary bytes at the schema-bound NDJSON row
// source the streaming endpoint decodes with: it must never panic, never
// emit a row with the wrong arity, and never return more rows per call
// than asked for — the memory bound the streaming endpoint relies on to
// stay O(chunk), not O(body).
func FuzzStreamNDJSON(f *testing.F) {
	f.Add([]byte(`["a","b"]`))
	f.Add([]byte(`{"x":"a","y":null}`))
	f.Add([]byte("\n\n[1,2]\n{\"x\":\"v\",\"y\":3.5}\n"))
	f.Add([]byte(`[{"deep":[1,2]},"b"]`))
	f.Add([]byte(`{"x":"a","y":"b","z":"unknown"}`))
	f.Add([]byte(`["only one cell"]`))
	f.Add([]byte("[\"a\",\"b\"]\nnot json at all\n[\"c\",\"d\"]"))
	f.Add([]byte("\xff\xfe\x00 garbage"))
	f.Add(bytes.Repeat([]byte(`["a","b"]`+"\n"), 100))
	attrs := []string{"x", "y"}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := table.NewNDJSONSource(bytes.NewReader(data), attrs)
		if err != nil {
			t.Fatalf("schema-bound source must open without reading the body: %v", err)
		}
		const max = 8
		for i := 0; i < 1<<20; i++ { // hard stop: Next must terminate
			rows, err := src.Next(max)
			if len(rows) > max {
				t.Fatalf("next(%d) returned %d rows", max, len(rows))
			}
			for _, row := range rows {
				if len(row) != len(attrs) {
					t.Fatalf("row has %d cells, model expects %d", len(row), len(attrs))
				}
			}
			if err != nil {
				return // io.EOF or a decode error: both are clean exits
			}
		}
		t.Fatal("ndjson source never terminated")
	})
}
