package model

import (
	"context"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/zeroed"
)

// asV1 converts a version-2 artifact into the version-1 layout: same
// sections, but the config payload loses the 16 lineage bytes appended in
// version 2, and the header declares version 1. This reconstructs exactly
// the bytes a pre-lineage build wrote.
func asV1(t *testing.T, v2 []byte) []byte {
	t.Helper()
	out := []byte(Magic)
	out = le.AppendUint32(out, 1)
	out = le.AppendUint32(out, uint32(len(sectionOrder)))
	off := len(Magic) + 8
	for i := range sectionOrder {
		id := le.Uint32(v2[off:])
		plen := int(le.Uint64(v2[off+4:]))
		payload := v2[off+12 : off+12+plen]
		if i == 0 {
			if plen < 16 {
				t.Fatalf("config payload too short: %d bytes", plen)
			}
			payload = payload[:plen-16]
		}
		start := len(out)
		out = le.AppendUint32(out, id)
		out = le.AppendUint64(out, uint64(len(payload)))
		out = append(out, payload...)
		out = le.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
		off += 12 + plen + 4
	}
	if off != len(v2) {
		t.Fatalf("v2 artifact has %d trailing bytes", len(v2)-off)
	}
	return out
}

// TestDecodeVersion1Artifact pins backwards compatibility: an artifact in
// the version-1 layout still decodes, reports lineage version 1, and scores
// bit-identically to the version-2 round trip.
func TestDecodeVersion1Artifact(t *testing.T) {
	m, bench := fitSmall(t)
	v2, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	v1 := asV1(t, v2)
	old, err := Decode(v1)
	if err != nil {
		t.Fatalf("version-1 artifact rejected: %v", err)
	}
	if l := old.Lineage(); l.Version != 1 || l.RefitRows != 0 {
		t.Fatalf("version-1 lineage = %+v, want {1 0}", l)
	}
	want, err := m.ScoreOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := old.ScoreOn(context.Background(), nil, bench.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	assertSameScores(t, "v1-artifact", want, got)
}

// TestLineageRoundTrip: refit provenance survives the artifact codec, and
// the default lineage of a fresh fit is version 1.
func TestLineageRoundTrip(t *testing.T) {
	m, _ := fitSmall(t)
	if l := m.Lineage(); l.Version != 1 || l.RefitRows != 0 {
		t.Fatalf("fresh fit lineage = %+v, want {1 0}", l)
	}
	m.SetLineage(zeroed.Lineage{Version: 3, RefitRows: 1234})
	defer m.SetLineage(zeroed.Lineage{}) // fitSmall's model is shared across tests
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if l := back.Lineage(); l.Version != 3 || l.RefitRows != 1234 {
		t.Fatalf("lineage round-trip = %+v, want {3 1234}", l)
	}
}

// withNaNWeight returns a copy of artifact with the network's first layer-1
// weight replaced by NaN and the net section's checksum recomputed, so only
// the weight's value is wrong.
func withNaNWeight(t *testing.T, artifact []byte) []byte {
	t.Helper()
	out := append([]byte(nil), artifact...)
	off := len(Magic) + 8
	for range sectionOrder[:len(sectionOrder)-1] {
		off += 12 + int(le.Uint64(out[off+4:])) + 4
	}
	if id := le.Uint32(out[off:]); id != secNet {
		t.Fatalf("last section has id %d, want the net section", id)
	}
	plen := int(le.Uint64(out[off+4:]))
	payload := out[off+12 : off+12+plen]
	// Payload: has-net flag (1 byte), In/Hidden1/Hidden2 (8 bytes each),
	// then W1's element count (4 bytes) and its first element.
	if payload[0] != 1 {
		t.Fatal("artifact has no network")
	}
	le.PutUint64(payload[1+24+4:], math.Float64bits(math.NaN()))
	le.PutUint32(out[off+12+plen:], crc32.ChecksumIEEE(out[off:off+12+plen]))
	return out
}

// TestDecodeRejectsNonFiniteWeight: an artifact whose checksums are valid
// but whose network holds a NaN weight is corrupt, not a model that would
// serve NaN scores.
func TestDecodeRejectsNonFiniteWeight(t *testing.T) {
	m, _ := fitSmall(t)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("intact artifact rejected: %v", err)
	}
	_, err = Decode(withNaNWeight(t, data))
	if !IsCorrupt(err) || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN weight: err = %v, want a non-finite CorruptError", err)
	}
}
