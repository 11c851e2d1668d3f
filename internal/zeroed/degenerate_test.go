package zeroed

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/table"
)

// tinyCfg shrinks the pipeline so degenerate-shape runs stay fast while
// exercising every stage.
func tinyCfg() Config {
	return Config{
		Seed:     1,
		Workers:  1,
		EmbedDim: 8,
		MLP:      nn.Config{Hidden1: 4, Hidden2: 3, Epochs: 2, BatchSize: 8, Seed: 1},
	}
}

func mustCSV(t *testing.T, csv string) *table.Dataset {
	t.Helper()
	d, err := table.ReadCSV("t", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDetectDegenerateShapes pins "clean error or defined verdict, never a
// panic" across the degenerate shapes reachable from untrusted uploads:
// one row, one cell, all-identical columns (zero-entropy NMI,
// zero-variance features), and cluster counts k >= n.
func TestDetectDegenerateShapes(t *testing.T) {
	cases := []struct {
		name string
		csv  string
		cfg  func(Config) Config
	}{
		{"one row", "a,b\n1,2\n", nil},
		{"one cell", "a\nv\n", nil},
		{"identical column", "a,b\nx,1\nx,2\nx,3\nx,4\nx,5\n", nil},
		{"all cells identical", "a,b\n" + strings.Repeat("s,s\n", 20), nil},
		{"two rows high label rate (k>=n)", "a,b\n1,2\n3,4\n", func(c Config) Config {
			c.LabelRate = 1.0 // forces clustersPerAttr >= sampled rows
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyCfg()
			if tc.cfg != nil {
				cfg = tc.cfg(cfg)
			}
			res, err := New(cfg).DetectOn(context.Background(), nil, mustCSV(t, tc.csv))
			if err != nil {
				t.Logf("clean error (acceptable): %v", err)
				return
			}
			if res == nil || res.Pred == nil {
				t.Fatal("nil result without error")
			}
		})
	}
}

// TestDetectContextCanceled pins that a pre-canceled context aborts
// immediately with the context error and no partial result.
func TestDetectContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(tinyCfg()).DetectOn(ctx, nil, mustCSV(t, "a,b\n1,2\n3,4\n5,6\n"))
	if err == nil {
		t.Fatal("canceled context must abort detection")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v must wrap context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled run must not return a partial result")
	}
}

// TestDetectOnSharedPool pins the pool convention of the four *On calls:
// a nil pool (a private pool of Config.Workers), NewPool(1) and NewPool(8)
// give identical verdicts and score bits, and one shared pool serves
// repeated jobs with the same output.
func TestDetectOnSharedPool(t *testing.T) {
	bench := datasets.Hospital(120, 4)
	cfg := detConfig(2, 0)
	cfg.MLP = nn.Config{Hidden1: 8, Hidden2: 4, Epochs: 3, Seed: 1}
	rows := make([][]string, 20)
	for i := range rows {
		rows[i] = bench.Dirty.Row(i)
	}
	rows[1][0] = "a-value-never-seen-during-fit"
	ctx := context.Background()
	run := func(p *Pool) []*Result {
		t.Helper()
		detect, err := New(cfg).DetectOn(ctx, p, bench.Dirty.Clone())
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(cfg).FitOn(ctx, p, bench.Dirty.Clone())
		if err != nil {
			t.Fatal(err)
		}
		score, err := m.ScoreOn(ctx, p, bench.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		scoreRows, err := m.ScoreRowsOn(ctx, p, rows)
		if err != nil {
			t.Fatal(err)
		}
		return []*Result{detect, score, scoreRows}
	}
	calls := []string{"DetectOn", "FitOn+ScoreOn", "FitOn+ScoreRowsOn"}
	want := run(nil)
	shared := NewPool(8)
	for _, tc := range []struct {
		name string
		pool *Pool
	}{{"pool1", NewPool(1)}, {"pool8", shared}, {"pool8-again", shared}} {
		for i, got := range run(tc.pool) {
			assertResultsIdentical(t, tc.name+" "+calls[i], want[i], got)
		}
	}
}
