package model

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/zeroed"
)

// fitSmall fits a small Hospital model once per test binary; every test
// reads from it but none mutates it (models are read-only after fitting,
// and scoring binds fresh datasets per call).
var fitOnce struct {
	sync.Once
	m     *zeroed.Model
	bench *datasets.Bench
	err   error
}

func fitSmall(t testing.TB) (*zeroed.Model, *datasets.Bench) {
	t.Helper()
	fitOnce.Do(func() {
		fitOnce.bench = datasets.Hospital(200, 7)
		fitOnce.m, fitOnce.err = zeroed.New(zeroed.Config{
			LabelRate: 0.08, EmbedDim: 16, Seed: 7, Workers: 2,
		}).FitOn(context.Background(), nil, fitOnce.bench.Dirty)
	})
	if fitOnce.err != nil {
		t.Fatal(fitOnce.err)
	}
	return fitOnce.m, fitOnce.bench
}

// assertSameScores compares two results bit-for-bit.
func assertSameScores(t *testing.T, name string, a, b *zeroed.Result) {
	t.Helper()
	if len(a.Pred) != len(b.Pred) {
		t.Fatalf("%s: %d vs %d rows", name, len(a.Pred), len(b.Pred))
	}
	for i := range a.Pred {
		for j := range a.Pred[i] {
			if a.Pred[i][j] != b.Pred[i][j] {
				t.Fatalf("%s: verdict differs at (%d,%d)", name, i, j)
			}
			if math.Float64bits(a.Scores[i][j]) != math.Float64bits(b.Scores[i][j]) {
				t.Fatalf("%s: score bits differ at (%d,%d)", name, i, j)
			}
		}
	}
}

// TestSaveLoadScoreBitIdentical is the artifact half of the acceptance
// contract: save -> load -> ScoreOn is bit-identical (verdicts and float64
// score bits) to the in-memory ScoreOn, for Workers∈{1,8}.
func TestSaveLoadScoreBitIdentical(t *testing.T) {
	m, bench := fitSmall(t)
	want, err := m.ScoreOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hospital.zedm")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.FitRows() != bench.Dirty.NumRows() {
		t.Fatalf("loaded FitRows = %d, want %d", loaded.FitRows(), bench.Dirty.NumRows())
	}
	if loaded.Info().Usage != m.Info().Usage || loaded.Info().CriteriaCount != m.Info().CriteriaCount {
		t.Fatalf("fit diagnostics did not round-trip: %+v vs %+v", loaded.Info(), m.Info())
	}
	for _, workers := range []int{1, 8} {
		loaded.SetWorkers(workers)
		got, err := loaded.ScoreOn(context.Background(), nil, bench.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		assertSameScores(t, "loaded", want, got)
	}
	// New rows (seen and unseen values mixed) score identically through
	// both models too.
	rows := [][]string{bench.Dirty.Row(0), bench.Dirty.Row(1)}
	rows[1][0] = "never-interned-during-fit"
	a, err := m.ScoreRowsOn(context.Background(), nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.ScoreRowsOn(context.Background(), nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	assertSameScores(t, "loaded-fresh-rows", a, b)
}

// TestEncodeDeterministic: encoding the same model twice yields identical
// bytes (all map iteration is sorted away).
func TestEncodeDeterministic(t *testing.T) {
	m, _ := fitSmall(t)
	a, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of one model differ")
	}
}

// TestEncodeIgnoresWorkers: the worker count schedules scoring on a host;
// it is not part of the model. Encoding writes none, so a model encodes the
// same bytes whatever its Workers, and a loaded model takes the loading
// host's GOMAXPROCS rather than the fitting host's.
func TestEncodeIgnoresWorkers(t *testing.T) {
	m, _ := fitSmall(t) // fitted with Workers: 2
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var enc [2][]byte
	for k, workers := range []int{1, 5} {
		loaded, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.Config().Workers; got != 1 {
			t.Errorf("loaded model schedules %d workers, want the loading host's GOMAXPROCS 1", got)
		}
		loaded.SetWorkers(workers)
		if enc[k], err = Encode(loaded); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Fatal("encoding one model at 1 and 5 workers gave different bytes")
	}
}

// TestDecodeRejectsWrongMagicAndVersion covers the header checks.
func TestDecodeRejectsWrongMagicAndVersion(t *testing.T) {
	m, _ := fitSmall(t)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	copy(bad, "NOPE")
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("wrong magic: got %v", err)
	}
	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[4:], Version+7)
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version: got %v", err)
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0xAB)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestDecodeRejectsTruncation: every proper prefix of a valid artifact is
// rejected with an error — never a panic.
func TestDecodeRejectsTruncation(t *testing.T) {
	m, _ := fitSmall(t)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// Every cut inside headers and section frames, then strided cuts
	// through the bulk payloads to keep the test fast (coarser under
	// -short/-race).
	stride := 97
	if testing.Short() {
		stride = 1024
	}
	cuts := map[int]bool{}
	for i := 0; i < len(data) && i < 256; i++ {
		cuts[i] = true
	}
	for i := 256; i < len(data); i += stride {
		cuts[i] = true
	}
	cuts[len(data)-1] = true
	for cut := range cuts {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(data))
		}
	}
}

// TestDecodeRejectsBitFlips: single-byte corruption anywhere in the
// artifact is caught (header checks or per-section checksums), never
// panics, and never yields a usable model silently.
func TestDecodeRejectsBitFlips(t *testing.T) {
	m, _ := fitSmall(t)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	probes := 1 << 13
	if testing.Short() {
		probes = 1 << 10
	}
	stride := 1
	if len(data) > probes {
		stride = len(data) / probes
	}
	for pos := 0; pos < len(data); pos += stride {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at byte %d of %d accepted", pos, len(data))
		}
	}
}

// TestDecodeRejectsUnpropagatedFit: the config slot that once held
// Config.DisablePropagation is always written as false. An artifact with it
// set, checksums intact, is corrupt, because a model fitted without label
// propagation would be silently refit with propagation on.
func TestDecodeRejectsUnpropagatedFit(t *testing.T) {
	m, _ := fitSmall(t)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// The config section is first. After the slot come nine 8-byte fit
	// facts (rows, four counts, three token counts, runtime) and the two
	// 8-byte lineage fields.
	bad := append([]byte(nil), data...)
	off := len(Magic) + 8
	plen := int(binary.LittleEndian.Uint64(bad[off+4:]))
	slot := off + 12 + plen - (9+2)*8 - 1
	if bad[slot] != 0 {
		t.Fatalf("propagation slot holds %d, want 0", bad[slot])
	}
	bad[slot] = 1
	binary.LittleEndian.PutUint32(bad[off+12+plen:], crc32.ChecksumIEEE(bad[off:off+12+plen]))
	_, err = Decode(bad)
	if !IsCorrupt(err) || !strings.Contains(err.Error(), "propagation") {
		t.Fatalf("propagation slot set: err = %v, want a propagation CorruptError", err)
	}
}

// TestLoadFileMissing: filesystem errors propagate.
func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.zedm")); err == nil {
		t.Error("missing file accepted")
	}
	// A directory is not an artifact either.
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(filepath.Join(dir, "d")); err == nil {
		t.Error("directory accepted")
	}
}

// TestEncodeDecodeFixedPoint: re-encoding a loaded model writes the bytes
// it was loaded from, so re-saving an artifact never grows it. The
// frequency snapshot keeps its scan-time count lengths through Decode even
// though the loaded dictionaries also hold the synthetic-error values
// interned after counting.
func TestEncodeDecodeFixedPoint(t *testing.T) {
	m, _ := fitSmall(t)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Encode(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("Encode(Decode(Encode(m))) is %d bytes, Encode(m) %d bytes; want them equal byte for byte", len(again), len(data))
	}
}
