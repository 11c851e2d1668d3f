package nn

import (
	"fmt"
	"math"
)

// Snapshot is the complete serializable state of a fitted MLP: the layer
// shape plus the flat row-major weight and bias buffers. It is the unit the
// model-artifact codec persists; FromSnapshot reconstructs an MLP whose
// inference is bit-identical to the snapshotted one (the forward pass is a
// pure function of these float64 buffers). The artifact keeps the
// row-major form; the conversion to the model's column-major layout happens
// here, at the boundary.
type Snapshot struct {
	In      int
	Hidden1 int
	Hidden2 int
	W1      []float64 // Hidden1 x In, row-major
	W2      []float64 // Hidden2 x Hidden1, row-major
	W3      []float64 // len Hidden2
	B1      []float64 // len Hidden1
	B2      []float64 // len Hidden2
	B3      float64
	Trained bool
}

// Snapshot captures the MLP's weights into a freshly allocated snapshot.
// The copies are deep, so later training of the source never aliases into a
// saved artifact.
func (m *MLP) Snapshot() *Snapshot {
	return &Snapshot{
		In:      m.in,
		Hidden1: m.cfg.Hidden1,
		Hidden2: m.cfg.Hidden2,
		W1:      transposed(m.w1, m.in, m.cfg.Hidden1),
		W2:      transposed(m.w2, m.cfg.Hidden1, m.cfg.Hidden2),
		W3:      append([]float64(nil), m.w3...),
		B1:      append([]float64(nil), m.b1...),
		B2:      append([]float64(nil), m.b2...),
		B3:      m.b3,
		Trained: m.trained,
	}
}

// FromSnapshot reconstructs an inference-ready MLP from a snapshot,
// validating the shape invariants and that every weight and bias is finite,
// so a corrupt or hand-built snapshot surfaces as an error rather than an
// out-of-range panic on the first forward pass or NaN scores. The restored
// model predicts bit-identically to the snapshotted one; its training
// hyperparameters are the defaults, because a restored artifact exists to
// score, not to train on.
func FromSnapshot(s *Snapshot) (*MLP, error) {
	if s == nil {
		return nil, fmt.Errorf("nn: nil snapshot")
	}
	if s.In <= 0 || s.Hidden1 <= 0 || s.Hidden2 <= 0 {
		return nil, fmt.Errorf("nn: snapshot has non-positive shape %dx%dx%d", s.In, s.Hidden1, s.Hidden2)
	}
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"w1", len(s.W1), s.Hidden1 * s.In},
		{"w2", len(s.W2), s.Hidden2 * s.Hidden1},
		{"w3", len(s.W3), s.Hidden2},
		{"b1", len(s.B1), s.Hidden1},
		{"b2", len(s.B2), s.Hidden2},
	} {
		if c.got != c.want {
			return nil, fmt.Errorf("nn: snapshot %s has %d weights, want %d", c.name, c.got, c.want)
		}
	}
	for _, c := range []struct {
		name string
		vals []float64
	}{
		{"w1", s.W1}, {"w2", s.W2}, {"w3", s.W3}, {"b1", s.B1}, {"b2", s.B2}, {"b3", []float64{s.B3}},
	} {
		for i, v := range c.vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("nn: snapshot %s[%d] is non-finite (%v)", c.name, i, v)
			}
		}
	}
	cfg := DefaultConfig()
	cfg.Hidden1 = s.Hidden1
	cfg.Hidden2 = s.Hidden2
	m := &MLP{cfg: cfg, in: s.In}
	m.w1 = transposed(s.W1, s.Hidden1, s.In)
	m.w2 = transposed(s.W2, s.Hidden2, s.Hidden1)
	m.w3 = append([]float64(nil), s.W3...)
	m.b1 = append([]float64(nil), s.B1...)
	m.b2 = append([]float64(nil), s.B2...)
	m.b3 = s.B3
	m.trained = s.Trained
	m.initScratch()
	return m, nil
}

// transposed returns a fresh copy of the flat rows x cols matrix src,
// transposed: it turns a row-major matrix into its column-major form and
// back.
func transposed(src []float64, rows, cols int) []float64 {
	dst := make([]float64, len(src))
	transpose(dst, src, rows, cols, 0, rows)
	return dst
}
