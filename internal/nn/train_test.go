package nn

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// synthTrainingSet builds a deterministic mixed-signal training set large
// enough to exercise multiple shuffled mini-batches per epoch, as a flat
// row-major tile of n rows of width dim.
func synthTrainingSet(n, dim int, seed int64) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	flat := make([]float64, n*dim)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := flat[i*dim : (i+1)*dim]
		var s float64
		for j := range row {
			row[j] = rng.NormFloat64()
			s += row[j]
		}
		if s+rng.NormFloat64()*0.3 > 0 {
			y[i] = 1
		}
	}
	return flat, y
}

// snapshotDigest hashes a snapshot's weights and biases (W1, W2, W3, B1,
// B2, B3, each float64 as little-endian bits) with SHA-256.
func snapshotDigest(s *Snapshot) string {
	h := sha256.New()
	var b [8]byte
	for _, xs := range [][]float64{s.W1, s.W2, s.W3, s.B1, s.B2, {s.B3}} {
		for _, v := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainGoldenBits pins what training produces, not just that two paths
// agree: the SHA-256 of the trained weights and the bits of the final loss
// for a fixed fixture spanning several epochs, shuffled mini-batches and a
// partial final batch. Any change to the Adam/BCE arithmetic, the shuffle
// stream, the He initialization or the weight layout moves these. The pins
// hold on amd64, where Go never fuses a multiply and an add; other
// architectures may contract them into FMA instructions and round
// differently.
//
// Every team size must hit the same pins. The fixture splits unevenly at
// each of them: 17 input columns, 12 layer-2 rows, and a final batch of 11
// rows, which a team of 8 shares out one or two rows a worker. The team
// sizes are forced past GOMAXPROCS so that one CPU still runs them all (a
// team starved of processors retires mid-run, which must not move a bit
// either); the public path, clamped to this machine, must match too.
func TestTrainGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden training bits are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const n, dim = 203, 17 // deliberately not a multiple of the batch size
	flat, y := synthTrainingSet(n, dim, 42)
	cfg := Config{Hidden1: 24, Hidden2: 12, LR: 1e-3, Epochs: 5, BatchSize: 32, Seed: 9, L2: 1e-5}
	const (
		wantDigest = "4d603dca24f3d9615ff5777ed682126eac50cf1e6f6617d1db8bac78234c5df7"
		wantLoss   = 0x3fe560c704f808a5
	)
	check := func(t *testing.T, m *MLP, loss float64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(loss); got != wantLoss {
			t.Errorf("final loss bits %#x (%v), want %#x (%v)", got, loss, uint64(wantLoss), math.Float64frombits(wantLoss))
		}
		if got := snapshotDigest(m.Snapshot()); got != wantDigest {
			t.Errorf("trained weight digest %s, want %s", got, wantDigest)
		}
	}
	for _, helpers := range []int{0, 1, 2, 3, 7} {
		t.Run(fmt.Sprintf("helpers=%d", helpers), func(t *testing.T) {
			m := New(dim, cfg)
			if got := m.teamCap(helpers+1, n); got != helpers {
				t.Fatalf("shape admits %d helpers, want %d", got, helpers)
			}
			loss, err := m.train(context.Background(), flat, n, y, helpers)
			check(t, m, loss, err)

			m = New(dim, cfg)
			loss, err = m.Train(context.Background(), flat, n, y, helpers)
			check(t, m, loss, err)
		})
	}
}

// TestTrainHospitalShapeTeamBits trains a Hospital-shaped detector (150
// features through 64/32 hidden units, so layer 1's gradient spans several
// column blocks) alone and in teams of 2 and 4: the trained weights and
// loss must be identical, and on amd64 equal to the pinned bits of the
// one-goroutine trainer this team trainer replaced.
func TestTrainHospitalShapeTeamBits(t *testing.T) {
	const n, dim = 600, 150
	flat, y := synthTrainingSet(n, dim, 5)
	cfg := DefaultConfig()
	cfg.Epochs = 2
	wantDigest := "84c50b11d14ba0bbbf5c003e687d526fd8f7e650700aa564c29d4351a432d9e5"
	wantLoss := uint64(0x3fe297358698f148)
	for _, helpers := range []int{0, 1, 3} {
		m := New(dim, cfg)
		loss, err := m.train(context.Background(), flat, n, y, helpers)
		if err != nil {
			t.Fatal(err)
		}
		digest := snapshotDigest(m.Snapshot())
		if helpers == 0 && runtime.GOARCH != "amd64" {
			wantDigest, wantLoss = digest, math.Float64bits(loss)
		}
		if digest != wantDigest || math.Float64bits(loss) != wantLoss {
			t.Errorf("helpers=%d: weight digest %s loss %#x, want %s %#x",
				helpers, digest, math.Float64bits(loss), wantDigest, wantLoss)
		}
	}
}

// TestTrainHelpersClamped pins the team-size clamp: at most procs-1, and
// every worker must own a row of a full batch and an input column; the
// public bound adds maxTeamHelpers on top.
func TestTrainHelpersClamped(t *testing.T) {
	for _, tc := range []struct {
		in, batch, procs, rows, want int
	}{
		{17, 32, 8, 203, 7},
		{17, 32, 1, 203, 0}, // one CPU: no team
		{17, 32, 64, 203, 16},
		{17, 32, 64, 10, 9}, // fewer rows than a batch
		{17, 4, 64, 203, 3},
		{3, 32, 64, 203, 2},
		{1, 32, 64, 203, 0},
		{17, 32, 8, 1, 0},
	} {
		m := New(tc.in, Config{Hidden1: 4, Hidden2: 3, BatchSize: tc.batch})
		if got := m.teamCap(tc.procs, tc.rows); got != tc.want {
			t.Errorf("in=%d batch=%d procs=%d rows=%d: %d helpers, want %d",
				tc.in, tc.batch, tc.procs, tc.rows, got, tc.want)
		}
	}
	m := New(17, Config{Hidden1: 4, Hidden2: 3, BatchSize: 32})
	if got, want := m.MaxHelpers(203), min(maxTeamHelpers, runtime.GOMAXPROCS(0)-1); got != want {
		t.Errorf("MaxHelpers = %d, want %d for GOMAXPROCS %d", got, want, runtime.GOMAXPROCS(0))
	}
	// A negative request trains on the caller alone.
	X, y := synthTrainingSet(40, 17, 1)
	if _, err := m.Train(context.Background(), X, 40, y, -3); err != nil {
		t.Fatal(err)
	}
}

// trainTeamErr trains a fresh model with the given team size and returns
// the error, checking that no helper goroutine outlives the call.
func trainTeamErr(t *testing.T, ctx context.Context, dim int, cfg Config, X []float64, n int, y []float64, helpers int) error {
	t.Helper()
	before := runtime.NumGoroutine()
	m := New(dim, cfg)
	_, err := m.train(ctx, X, n, y, helpers)
	if m.Trained() && err != nil {
		t.Errorf("helpers=%d: failed train marked the model trained", helpers)
	}
	// The helpers have finished before train returns; allow their
	// goroutines a moment to unwind. A helper left waiting never would.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("helpers=%d: %d goroutines after train, %d before", helpers, runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	return err
}

// TestTrainTeamErrorsMatchSerial puts invalid samples in rows that helpers
// own and requires every team to fail exactly as one goroutine does: on
// the first invalid row in batch order. Cancellation and divergence must
// also surface unchanged, and no path may leave a helper running.
func TestTrainTeamErrorsMatchSerial(t *testing.T) {
	const n, dim = 203, 17
	cfg := Config{Hidden1: 24, Hidden2: 12, LR: 1e-3, Epochs: 2, BatchSize: 32, Seed: 9}
	// The first epoch's shuffle, as train draws it.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })

	ctx := context.Background()
	cases := []struct {
		name string
		bad  func(X, y []float64)
		want string
	}{
		{
			// Batch positions 20 and 30 belong to helpers in teams of 2
			// and more; the error names the earlier.
			name: "first-batch",
			bad: func(X, y []float64) {
				X[idx[20]*dim+3] = math.NaN()
				y[idx[30]] = math.Inf(1)
			},
			want: fmt.Sprintf("nn: sample %d has non-finite feature NaN at index 3", idx[20]),
		},
		{
			// The last row of the final, partial batch.
			name: "last-batch",
			bad:  func(X, y []float64) { y[idx[n-1]] = math.NaN() },
			want: fmt.Sprintf("nn: label %d is non-finite (NaN)", idx[n-1]),
		},
	}
	for _, tc := range cases {
		X, y := synthTrainingSet(n, dim, 42)
		tc.bad(X, y)
		for _, helpers := range []int{0, 1, 3, 7} {
			err := trainTeamErr(t, ctx, dim, cfg, X, n, y, helpers)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s helpers=%d: error %v, want %q", tc.name, helpers, err, tc.want)
			}
		}
	}

	X, y := synthTrainingSet(n, dim, 42)
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for _, helpers := range []int{0, 3} {
		if err := trainTeamErr(t, canceled, dim, cfg, X, n, y, helpers); !errors.Is(err, context.Canceled) {
			t.Errorf("canceled helpers=%d: error %v, want context.Canceled", helpers, err)
		}
	}

	// guard_test's diverging problem; its two input columns admit one helper.
	div := guardCfg()
	div.LR, div.Epochs = 1e300, 50
	dX := []float64{1e8, -1e8, -1e8, 1e8, 1e8, 1e8, -1e8, -1e8}
	dy := []float64{0, 1, 0, 1}
	serial := trainTeamErr(t, ctx, 2, div, dX, 4, dy, 0)
	if serial == nil {
		t.Fatal("the diverging problem converged; the guard is not exercised")
	}
	if err := trainTeamErr(t, ctx, 2, div, dX, 4, dy, 1); err == nil || err.Error() != serial.Error() {
		t.Errorf("diverging helpers=1: error %v, want %q", err, serial)
	}

	// And a successful run leaves nothing behind either.
	if err := trainTeamErr(t, ctx, dim, cfg, X, n, y, 3); err != nil {
		t.Fatal(err)
	}
}

// TestTrainRetiresStarvedTeam runs teams on one processor, where a helper
// gets the processor only while the caller waits for it. A team there is
// starved: starved must report it, and a training run whose team retires
// after its first epoch must leave the same bits as one goroutine, with no
// helper left behind.
func TestTrainRetiresStarvedTeam(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	tm := newTeam(1)
	var sums [2]float64
	t0 := time.Now()
	for range 200 {
		tm.run(func(w int) {
			for i := range 20000 {
				sums[w] += math.Sqrt(float64(i))
			}
		})
	}
	if d := time.Since(t0); !tm.starved(d) {
		t.Errorf("team on one processor not starved: epoch %v", d)
	}
	if tm.stalled != 0 {
		t.Errorf("starved left %v of stalls counted", tm.stalled)
	}
	tm.stop()
	if newTeam(0).starved(time.Nanosecond) {
		t.Error("a team without helpers reported starved")
	}

	const n, dim = 203, 17
	X, y := synthTrainingSet(n, dim, 42)
	cfg := Config{Hidden1: 24, Hidden2: 12, LR: 1e-3, Epochs: 5, BatchSize: 32, Seed: 9, L2: 1e-5}
	ctx := context.Background()
	alone := New(dim, cfg)
	wantLoss, err := alone.train(ctx, X, n, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, helpers := range []int{1, 3} {
		m := New(dim, cfg)
		if err := trainTeamErr(t, ctx, dim, cfg, X, n, y, helpers); err != nil {
			t.Fatal(err)
		}
		loss, err := m.train(ctx, X, n, y, helpers)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(loss) != math.Float64bits(wantLoss) || snapshotDigest(m.Snapshot()) != snapshotDigest(alone.Snapshot()) {
			t.Errorf("helpers=%d on one processor: loss %v and weights differ from one goroutine's %v", helpers, loss, wantLoss)
		}
	}
}

// TestTrainFlatShapeValidation pins Train's tile shape errors.
func TestTrainFlatShapeValidation(t *testing.T) {
	ctx := context.Background()
	m := New(4, Config{Hidden1: 4, Hidden2: 3, Epochs: 1, Seed: 1})
	if _, err := m.Train(ctx, nil, 0, nil, 0); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := m.Train(ctx, make([]float64, 7), 2, make([]float64, 2), 0); err == nil {
		t.Fatal("misshapen tile accepted")
	}
	if _, err := m.Train(ctx, make([]float64, 8), 2, make([]float64, 3), 0); err == nil {
		t.Fatal("label/sample mismatch accepted")
	}
}

// TestTrainFlatFusedValidationRejectsNonFinite checks that the fused
// first-epoch validation surfaces non-finite features and labels deep in a
// multi-batch tile as errors.
func TestTrainFlatFusedValidationRejectsNonFinite(t *testing.T) {
	const n, dim = 40, 5
	flat, y := synthTrainingSet(n, dim, 7)
	flat[3*dim+2] = math.NaN()
	m := New(dim, Config{Hidden1: 8, Hidden2: 4, Epochs: 3, Seed: 2})
	if _, err := m.Train(context.Background(), flat, n, y, 0); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN feature not rejected: %v", err)
	}

	flat2, y2 := synthTrainingSet(n, dim, 8)
	y2[11] = math.Inf(1)
	m2 := New(dim, Config{Hidden1: 8, Hidden2: 4, Epochs: 3, Seed: 2})
	if _, err := m2.Train(context.Background(), flat2, n, y2, 0); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Inf label not rejected: %v", err)
	}
}
