package nn

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
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
func TestTrainGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden training bits are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const n, dim = 203, 17 // deliberately not a multiple of the batch size
	flat, y := synthTrainingSet(n, dim, 42)
	cfg := Config{Hidden1: 24, Hidden2: 12, LR: 1e-3, Epochs: 5, BatchSize: 32, Seed: 9, L2: 1e-5}
	m := New(dim, cfg)
	loss, err := m.Train(context.Background(), flat, n, y)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantDigest = "4d603dca24f3d9615ff5777ed682126eac50cf1e6f6617d1db8bac78234c5df7"
		wantLoss   = 0x3fe560c704f808a5
	)
	if got := math.Float64bits(loss); got != wantLoss {
		t.Errorf("final loss bits %#x (%v), want %#x (%v)", got, loss, uint64(wantLoss), math.Float64frombits(wantLoss))
	}
	if got := snapshotDigest(m.Snapshot()); got != wantDigest {
		t.Errorf("trained weight digest %s, want %s", got, wantDigest)
	}
}

// TestTrainFlatShapeValidation pins Train's tile shape errors.
func TestTrainFlatShapeValidation(t *testing.T) {
	ctx := context.Background()
	m := New(4, Config{Hidden1: 4, Hidden2: 3, Epochs: 1, Seed: 1})
	if _, err := m.Train(ctx, nil, 0, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := m.Train(ctx, make([]float64, 7), 2, make([]float64, 2)); err == nil {
		t.Fatal("misshapen tile accepted")
	}
	if _, err := m.Train(ctx, make([]float64, 8), 2, make([]float64, 3)); err == nil {
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
	if _, err := m.Train(context.Background(), flat, n, y); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN feature not rejected: %v", err)
	}

	flat2, y2 := synthTrainingSet(n, dim, 8)
	y2[11] = math.Inf(1)
	m2 := New(dim, Config{Hidden1: 8, Hidden2: 4, Epochs: 3, Seed: 2})
	if _, err := m2.Train(context.Background(), flat2, n, y2); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Inf label not rejected: %v", err)
	}
}
