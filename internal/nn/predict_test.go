package nn

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refDot is the naive dot product s + w[0]*x[0] + w[1]*x[1] + ..., added
// left to right: the association every inference kernel must reproduce.
func refDot(s float64, w, x []float64) float64 {
	for i := range w {
		s += w[i] * x[i]
	}
	return s
}

// refForward is the naive row-major forward pass over a snapshot's
// weights, one dot product per output unit.
func refForward(s *Snapshot, x []float64) float64 {
	relu := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	h1 := make([]float64, s.Hidden1)
	for r := range h1 {
		h1[r] = relu(refDot(s.B1[r], s.W1[r*s.In:(r+1)*s.In], x))
	}
	h2 := make([]float64, s.Hidden2)
	for r := range h2 {
		h2[r] = relu(refDot(s.B2[r], s.W2[r*s.Hidden1:(r+1)*s.Hidden1], h1))
	}
	return sigmoid(refDot(s.B3, s.W3, h2))
}

// TestPredictIntoMatchesReference pins the row-blocked column-major
// inference kernel to the naive row-major forward pass bit for bit, across
// every block tail (nRows 1..2*predictBlock+1), an input width that is not
// a multiple of four, odd hidden widths, and models produced by Train and
// FromSnapshot.
func TestPredictIntoMatchesReference(t *testing.T) {
	shapes := []struct{ in, h1, h2 int }{
		{17, 13, 7},
		{6, 5, 3},
		{150, 64, 32},
	}
	for _, sh := range shapes {
		const n = 96
		flat, y := synthTrainingSet(n, sh.in, int64(sh.in))
		row := func(i int) []float64 { return flat[i*sh.in : (i+1)*sh.in] }
		cfg := Config{Hidden1: sh.h1, Hidden2: sh.h2, LR: 1e-2, Epochs: 3, BatchSize: 16, Seed: 5, L2: 1e-5}

		viaTrain := New(sh.in, cfg)
		if _, err := viaTrain.Train(context.Background(), flat, n, y, 0); err != nil {
			t.Fatal(err)
		}
		viaSnap, err := FromSnapshot(viaTrain.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]*MLP{"Train": viaTrain, "FromSnapshot": viaSnap} {
			snap := m.Snapshot()
			for rows := 1; rows <= 2*predictBlock+1; rows++ {
				out := make([]float64, rows)
				m.PredictInto(flat[:rows*sh.in], rows, out)
				for i := 0; i < rows; i++ {
					want := refForward(snap, row(i))
					if math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%dx%dx%d %s nRows=%d row %d: PredictInto %v, reference %v",
							sh.in, sh.h1, sh.h2, name, rows, i, out[i], want)
					}
				}
			}
			for i := 0; i < n; i++ {
				want := refForward(snap, row(i))
				if p := m.Predict(row(i)); math.Float64bits(p) != math.Float64bits(want) {
					t.Fatalf("%dx%dx%d %s: Predict row %d = %v, reference %v", sh.in, sh.h1, sh.h2, name, i, p, want)
				}
			}
		}
	}
}

// TestSnapshotRowMajor pins the artifact layout: a fresh model's snapshot
// lists each layer's weights row by row, in the seeded He draw order.
func TestSnapshotRowMajor(t *testing.T) {
	const in = 5
	cfg := Config{Hidden1: 3, Hidden2: 2, Seed: 4}
	s := New(in, cfg).Snapshot()
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, layer := range []struct {
		name string
		w    []float64
		fan  int
	}{{"W1", s.W1, in}, {"W2", s.W2, cfg.Hidden1}, {"W3", s.W3, cfg.Hidden2}} {
		scale := math.Sqrt(2.0 / float64(layer.fan))
		for i, got := range layer.w {
			if want := rng.NormFloat64() * scale; got != want {
				t.Fatalf("%s[%d] = %v, want draw %v", layer.name, i, got, want)
			}
		}
	}
}

// TestFromSnapshotRejectsNonFinite: a snapshot carrying a NaN or infinite
// weight or bias fails to load instead of serving NaN scores.
func TestFromSnapshotRejectsNonFinite(t *testing.T) {
	m := New(4, Config{Hidden1: 3, Hidden2: 2, Seed: 1})
	if _, err := FromSnapshot(m.Snapshot()); err != nil {
		t.Fatalf("finite snapshot rejected: %v", err)
	}
	for field, poison := range map[string]func(*Snapshot, float64){
		"W1": func(s *Snapshot, v float64) { s.W1[len(s.W1)-1] = v },
		"W2": func(s *Snapshot, v float64) { s.W2[1] = v },
		"W3": func(s *Snapshot, v float64) { s.W3[0] = v },
		"B1": func(s *Snapshot, v float64) { s.B1[2] = v },
		"B2": func(s *Snapshot, v float64) { s.B2[1] = v },
		"B3": func(s *Snapshot, v float64) { s.B3 = v },
	} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := m.Snapshot()
			poison(s, bad)
			_, err := FromSnapshot(s)
			if err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("%s = %v: err = %v, want a non-finite error", field, bad, err)
			}
		}
	}
}

// BenchmarkPredictInto measures batched inference on the shape the engine
// scores Hospital with: a 16-row tile of 150 features through 64/32 hidden
// units.
func BenchmarkPredictInto(b *testing.B) {
	const rows, in = 16, 150
	tile, _ := synthTrainingSet(rows, in, 1)
	m := New(in, Config{Hidden1: 64, Hidden2: 32, Seed: 1})
	out := make([]float64, rows)
	b.ReportAllocs()
	for b.Loop() {
		m.PredictInto(tile, rows, out)
	}
}
