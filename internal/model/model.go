// Package model persists fitted ZeroED detectors (zeroed.Model) as
// versioned binary artifacts — the "fit once, score forever" subsystem.
//
// Artifact layout (versions 1 and 2, all integers little-endian):
//
//	magic "ZEDM" | version u32 | section count u32
//	then exactly 5 sections, in order, each framed as
//	  section id u32 | payload length u64 | payload | CRC32(IEEE) u32
//	with the checksum covering the section's id, length, and payload.
//
// Sections: config (run configuration, fit shape, diagnostics), schema
// (attributes and per-column dictionaries), feature (correlation structure
// and frequency tables), criteria (the refined executable criteria sets),
// and net (the flat MLP weights, or the degenerate-fit fallback labels).
//
// Version 2 appends the model's lineage (refit-chain version and refit row
// count) to the config section; this build writes version 2 and reads both.
// A version-1 artifact decodes with lineage {Version: 1, RefitRows: 0}.
//
// The config section keeps three scheduling slots (a worker count, a
// scoring-shard count and a score-dedup switch) that cannot change a
// score: they are written as zero and ignored on decode, so artifacts of
// either version load, a fit encodes the same bytes on every host, and a
// loaded model schedules on the loading host's GOMAXPROCS.
//
// Guarantees: encoding is deterministic (map contents are sorted), floats
// round-trip bit-exactly (raw IEEE-754 bits), and decoding is total — a
// truncated, bit-flipped, wrong-magic, wrong-version, or otherwise corrupt
// artifact returns an error; it never panics and never allocates more than
// a small multiple of the input size (every length prefix is validated
// against the bytes actually present). A loaded model scores bit-identically
// to the in-memory model that was saved (pinned by tests in this package).
package model

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/criteria"
	"repro/internal/faultpoint"
	"repro/internal/feature"
	"repro/internal/llm"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/zeroed"
)

// Failpoints at the artifact store's effect boundaries. Disarmed they cost
// one atomic load; the chaos suite arms them to kill the process at each
// point and prove recovery (see internal/faultpoint and scripts/chaos.sh).
var (
	fpSaveAfterWrite   = faultpoint.New("model.save.after_write")
	fpSaveBeforeRename = faultpoint.New("model.save.before_rename")
	fpSaveAfterRename  = faultpoint.New("model.save.after_rename")
	fpLoadDecode       = faultpoint.New("model.load.decode")
)

// TmpSuffix marks an in-progress atomic write. A crash can strand such a
// file; it is never a committed artifact and is safe to delete on startup.
const TmpSuffix = ".tmp"

// CorruptError marks artifact bytes that are structurally or semantically
// invalid — as opposed to I/O failures reading them. Callers use the
// distinction to quarantine corrupt files while leaving unreadable-but-
// possibly-fine files alone.
type CorruptError struct {
	Err error
}

func (e *CorruptError) Error() string { return e.Err.Error() }
func (e *CorruptError) Unwrap() error { return e.Err }

// IsCorrupt reports whether err marks corrupt artifact content.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// Magic identifies a ZeroED model artifact.
const Magic = "ZEDM"

// Version is the artifact format version this build writes. Decode also
// accepts every earlier version back to MinVersion.
const Version = 2

// MinVersion is the oldest artifact format version Decode still reads.
const MinVersion = 1

// Section IDs, in their mandatory file order.
const (
	secConfig uint32 = iota + 1
	secSchema
	secFeature
	secCriteria
	secNet
)

var sectionOrder = []uint32{secConfig, secSchema, secFeature, secCriteria, secNet}

// maxArtifactBytes bounds how much Load will read from a stream; a larger
// artifact cannot be legitimate and would otherwise let a malicious
// endpoint exhaust memory.
const maxArtifactBytes = 1 << 31

// Encode serializes a fitted model into a standalone artifact.
func Encode(m *zeroed.Model) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("model: nil model")
	}
	st := m.State()
	var out []byte
	out = append(out, Magic...)
	out = le.AppendUint32(out, Version)
	out = le.AppendUint32(out, uint32(len(sectionOrder)))

	var w writer
	encodeConfig(&w, st)
	out = appendSection(out, secConfig, w.b)

	w = writer{}
	w.strs(st.Attrs)
	for _, dict := range st.Dicts {
		w.strs(dict)
	}
	out = appendSection(out, secSchema, w.b)

	w = writer{}
	encodeFeature(&w, st.Feature)
	out = appendSection(out, secFeature, w.b)

	w = writer{}
	encodeCriteria(&w, st.Feature.Criteria)
	out = appendSection(out, secCriteria, w.b)

	w = writer{}
	encodeNet(&w, st)
	out = appendSection(out, secNet, w.b)
	return out, nil
}

// Decode reconstructs a scoring-ready model from artifact bytes, rejecting
// anything structurally or semantically corrupt. Every Decode failure is a
// *CorruptError: the bytes themselves are bad, not the medium they came
// from.
func Decode(data []byte) (*zeroed.Model, error) {
	m, err := decode(data)
	if err != nil {
		return nil, &CorruptError{Err: err}
	}
	return m, nil
}

func decode(data []byte) (*zeroed.Model, error) {
	if len(data) < len(Magic)+8 {
		return nil, fmt.Errorf("model: artifact truncated at %d bytes", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("model: bad magic %q, want %q", data[:len(Magic)], Magic)
	}
	off := len(Magic)
	version := le.Uint32(data[off:])
	if version < MinVersion || version > Version {
		return nil, fmt.Errorf("model: unsupported artifact version %d (this build reads %d..%d)", version, MinVersion, Version)
	}
	nsec := le.Uint32(data[off+4:])
	if int(nsec) != len(sectionOrder) {
		return nil, fmt.Errorf("model: artifact declares %d sections, version %d has %d", nsec, version, len(sectionOrder))
	}
	off += 8
	payloads := make([][]byte, len(sectionOrder))
	for i, wantID := range sectionOrder {
		if len(data)-off < 12 {
			return nil, fmt.Errorf("model: artifact truncated in section %d header", i+1)
		}
		id := le.Uint32(data[off:])
		plen := le.Uint64(data[off+4:])
		if id != wantID {
			return nil, fmt.Errorf("model: section %d has id %d, want %d", i+1, id, wantID)
		}
		if plen > uint64(len(data)-off-12) || uint64(len(data)-off-12)-plen < 4 {
			return nil, fmt.Errorf("model: artifact truncated in section %d payload", i+1)
		}
		end := off + 12 + int(plen)
		want := le.Uint32(data[end:])
		if got := crc32.ChecksumIEEE(data[off:end]); got != want {
			return nil, fmt.Errorf("model: section %d checksum mismatch (artifact corrupt)", i+1)
		}
		payloads[i] = data[off+12 : end]
		off = end + 4
	}
	if off != len(data) {
		return nil, fmt.Errorf("model: %d trailing bytes after final section", len(data)-off)
	}

	st := &zeroed.ModelState{}
	if err := decodeConfig(&reader{b: payloads[0]}, st, version); err != nil {
		return nil, err
	}
	if err := decodeSchema(&reader{b: payloads[1]}, st); err != nil {
		return nil, err
	}
	snap, err := decodeFeature(&reader{b: payloads[2]})
	if err != nil {
		return nil, err
	}
	snap.Criteria, err = decodeCriteria(&reader{b: payloads[3]})
	if err != nil {
		return nil, err
	}
	st.Feature = snap
	if err := decodeNet(&reader{b: payloads[4]}, st); err != nil {
		return nil, err
	}
	return zeroed.ModelFromState(st)
}

// Load reads one artifact from r (to EOF, bounded) and decodes it.
func Load(r io.Reader) (*zeroed.Model, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxArtifactBytes))
	if err != nil {
		return nil, fmt.Errorf("model: reading artifact: %w", err)
	}
	return Decode(data)
}

// SaveFile writes the artifact to path with full crash safety: a reader
// observes either the previous contents or the complete new artifact, never
// a torn write (see WriteFileAtomic).
func SaveFile(path string, m *zeroed.Model) error {
	data, err := Encode(m)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// WriteFileAtomic commits data to path durably: write to path+TmpSuffix,
// fsync the file, rename over path, then fsync the directory so the rename
// itself survives power loss. A crash at any point leaves either the old
// contents or the new — plus at worst a stranded .tmp file, which is never
// read as an artifact and is reaped at the next startup.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + TmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = fpSaveAfterWrite.Eval()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fpSaveBeforeRename.Eval()
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fpSaveAfterRename.Eval(); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-committed rename inside it is
// durable. Best effort on platforms where directories refuse fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// LoadFile reads and decodes the artifact at path. Open/read failures come
// back as plain I/O errors; bad bytes come back as *CorruptError.
func LoadFile(path string) (*zeroed.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := fpLoadDecode.Eval(); err != nil {
		return nil, &CorruptError{Err: err}
	}
	return Load(f)
}

// appendSection frames one section: id, length, payload, CRC32 over all
// three.
func appendSection(dst []byte, id uint32, payload []byte) []byte {
	start := len(dst)
	dst = le.AppendUint32(dst, id)
	dst = le.AppendUint64(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return le.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// ---- section: config ----

func encodeConfig(w *writer, st *zeroed.ModelState) {
	c := st.Cfg
	w.f64(c.LabelRate)
	w.int(c.CorrK)
	w.int(c.EmbedDim)
	w.str(string(c.Sampler))
	w.str(c.Profile.Name)
	w.f64(c.Profile.LabelFlipClean)
	w.f64(c.Profile.LabelFlipError)
	w.f64(c.Profile.CriteriaSkill)
	w.f64(c.Profile.GuidelineSkill)
	w.i64(c.Profile.Seed)
	w.int(c.BatchSize)
	w.int(c.MLP.Hidden1)
	w.int(c.MLP.Hidden2)
	w.f64(c.MLP.LR)
	w.int(c.MLP.Epochs)
	w.int(c.MLP.BatchSize)
	w.i64(c.MLP.Seed)
	w.f64(c.MLP.L2)
	w.f64(c.Threshold)
	w.i64(c.Seed)
	// Three scheduling slots, once Config.Workers, Config.Shards and
	// Config.DisableScoreDedup. None of them can change a score, so they
	// are written as 0, 0, false and skipped on decode, where the loading
	// host's GOMAXPROCS sets the worker count; keeping them keeps the byte
	// layout of versions 1 and 2.
	w.int(0)
	w.int(0)
	w.bool(false)
	w.int(c.MaxPropagatedPerAttr)
	w.int(c.ClusterSampleRows)
	w.int(c.MaxClustersPerAttr)
	w.int(c.AugmentPerAttr)
	w.bool(c.DisableGuidelines)
	w.bool(c.DisableCriteria)
	w.bool(c.DisableCorrelated)
	w.bool(c.DisableVerification)
	// One slot, once Config.DisablePropagation. Every fit propagates
	// labels, so it is written as false to keep the byte layout, and
	// decodeConfig rejects an artifact that has it set.
	w.bool(false)

	w.int(st.FitRows)
	w.int(st.Info.SampledCells)
	w.int(st.Info.TrainingCells)
	w.int(st.Info.AugmentedErrs)
	w.int(st.Info.CriteriaCount)
	w.i64(st.Info.Usage.InputTokens)
	w.i64(st.Info.Usage.OutputTokens)
	w.i64(st.Info.Usage.Calls)
	w.i64(int64(st.Info.FitRuntime))

	// Version 2: lineage, appended so the version-1 prefix is unchanged.
	w.int(st.Lineage.Version)
	w.int(st.Lineage.RefitRows)
}

func decodeConfig(r *reader, st *zeroed.ModelState, version uint32) error {
	var c zeroed.Config
	c.LabelRate = r.f64()
	c.CorrK = r.int()
	c.EmbedDim = r.int()
	c.Sampler = zeroed.Sampler(r.str())
	c.Profile = llm.Profile{
		Name:           r.str(),
		LabelFlipClean: r.f64(),
		LabelFlipError: r.f64(),
		CriteriaSkill:  r.f64(),
		GuidelineSkill: r.f64(),
		Seed:           r.i64(),
	}
	c.BatchSize = r.int()
	c.MLP.Hidden1 = r.int()
	c.MLP.Hidden2 = r.int()
	c.MLP.LR = r.f64()
	c.MLP.Epochs = r.int()
	c.MLP.BatchSize = r.int()
	c.MLP.Seed = r.i64()
	c.MLP.L2 = r.f64()
	c.Threshold = r.f64()
	c.Seed = r.i64()
	r.int() // scheduling slots, see encodeConfig
	r.int()
	r.bool()
	c.MaxPropagatedPerAttr = r.int()
	c.ClusterSampleRows = r.int()
	c.MaxClustersPerAttr = r.int()
	c.AugmentPerAttr = r.int()
	c.DisableGuidelines = r.bool()
	c.DisableCriteria = r.bool()
	c.DisableCorrelated = r.bool()
	c.DisableVerification = r.bool()
	if r.bool() {
		// A model fitted without label propagation cannot be rebuilt by a
		// refit here, which always propagates.
		r.failf("model: artifact was fitted without label propagation, which this build does not support")
	}
	st.Cfg = c

	st.FitRows = r.int()
	st.Info.SampledCells = r.int()
	st.Info.TrainingCells = r.int()
	st.Info.AugmentedErrs = r.int()
	st.Info.CriteriaCount = r.int()
	st.Info.Usage.InputTokens = r.i64()
	st.Info.Usage.OutputTokens = r.i64()
	st.Info.Usage.Calls = r.i64()
	st.Info.FitRuntime = time.Duration(r.i64())
	if version >= 2 {
		st.Lineage.Version = r.int()
		st.Lineage.RefitRows = r.int()
	} else {
		st.Lineage = zeroed.Lineage{Version: 1}
	}
	return r.done()
}

// ---- section: schema ----

func decodeSchema(r *reader, st *zeroed.ModelState) error {
	st.Attrs = r.strs()
	if r.err != nil {
		return r.err
	}
	st.Dicts = make([][]string, len(st.Attrs))
	for j := range st.Dicts {
		st.Dicts[j] = r.strs()
	}
	return r.done()
}

// ---- section: feature ----

func encodeFeature(w *writer, s *feature.Snapshot) {
	w.int(s.Cfg.EmbedDim)
	w.int(s.Cfg.CorrK)
	w.bool(s.Cfg.DisableCorrelated)
	w.bool(s.Cfg.DisableCriteria)
	w.u32(uint32(len(s.Corr)))
	for _, corr := range s.Corr {
		w.ints(corr)
	}
	f := s.Freq
	w.int(f.N)
	w.u32(uint32(len(f.Counts)))
	for _, c := range f.Counts {
		w.ints(c)
	}
	for lvl := 0; lvl < 3; lvl++ {
		w.u32(uint32(len(f.PatCounts[lvl])))
		for _, c := range f.PatCounts[lvl] {
			w.ints(c)
		}
	}
	w.u32(uint32(len(f.CoOccur)))
	for _, co := range f.CoOccur {
		w.int(co.J)
		w.int(co.Q)
		w.u64s(co.Keys)
		w.ints(co.Counts)
	}
}

func decodeFeature(r *reader) (*feature.Snapshot, error) {
	s := &feature.Snapshot{}
	s.Cfg.EmbedDim = r.int()
	s.Cfg.CorrK = r.int()
	s.Cfg.DisableCorrelated = r.bool()
	s.Cfg.DisableCriteria = r.bool()
	if n := r.count(4); r.err == nil {
		s.Corr = make([][]int, n)
		for j := range s.Corr {
			s.Corr[j] = r.ints()
		}
	}
	f := &stats.FreqSnapshot{}
	f.N = r.int()
	if n := r.count(4); r.err == nil {
		f.Counts = make([][]int, n)
		for j := range f.Counts {
			f.Counts[j] = r.ints()
		}
	}
	for lvl := 0; lvl < 3; lvl++ {
		if n := r.count(4); r.err == nil {
			f.PatCounts[lvl] = make([][]int, n)
			for j := range f.PatCounts[lvl] {
				f.PatCounts[lvl][j] = r.ints()
			}
		}
	}
	if n := r.count(24); r.err == nil {
		f.CoOccur = make([]stats.CoOccurSnapshot, n)
		for i := range f.CoOccur {
			f.CoOccur[i].J = r.int()
			f.CoOccur[i].Q = r.int()
			f.CoOccur[i].Keys = r.u64s()
			f.CoOccur[i].Counts = r.ints()
		}
	}
	s.Freq = f
	return s, r.done()
}

// ---- section: criteria ----

func encodeCriteria(w *writer, sets []*criteria.Set) {
	w.u32(uint32(len(sets)))
	for _, s := range sets {
		if s == nil {
			w.bool(false)
			continue
		}
		w.bool(true)
		w.str(s.Attr)
		w.u32(uint32(len(s.Criteria)))
		for _, c := range s.Criteria {
			encodeCriterion(w, c)
		}
	}
}

func decodeCriteria(r *reader) ([]*criteria.Set, error) {
	n := r.count(1)
	if r.err != nil {
		return nil, r.err
	}
	sets := make([]*criteria.Set, n)
	for j := range sets {
		if !r.bool() {
			continue
		}
		s := &criteria.Set{Attr: r.str()}
		nc := r.count(1)
		if r.err != nil {
			return nil, r.err
		}
		s.Criteria = make([]*criteria.Criterion, nc)
		for i := range s.Criteria {
			s.Criteria[i] = decodeCriterion(r)
			if r.err != nil {
				return nil, r.err
			}
		}
		sets[j] = s
	}
	return sets, r.done()
}

func encodeCriterion(w *writer, c *criteria.Criterion) {
	w.str(string(c.Kind))
	w.str(c.Attr)
	w.str(c.Name)
	w.strBoolMap(c.Patterns)
	w.strBoolMap(c.Domain)
	w.f64(c.Lo)
	w.f64(c.Hi)
	w.str(c.DetAttr)
	w.strStrMap(c.Mapping)
	w.byteBoolMap(c.AllowedClasses)
	w.int(c.MinLen)
	w.int(c.MaxLen)
	w.strs(c.TypoTargets)
	w.int(c.MaxDist)
	w.int(c.MinCount)
	w.strIntMap(c.Counts)
}

func decodeCriterion(r *reader) *criteria.Criterion {
	return &criteria.Criterion{
		Kind:           criteria.Kind(r.str()),
		Attr:           r.str(),
		Name:           r.str(),
		Patterns:       r.strBoolMap(),
		Domain:         r.strBoolMap(),
		Lo:             r.f64(),
		Hi:             r.f64(),
		DetAttr:        r.str(),
		Mapping:        r.strStrMap(),
		AllowedClasses: r.byteBoolMap(),
		MinLen:         r.int(),
		MaxLen:         r.int(),
		TypoTargets:    r.strs(),
		MaxDist:        r.int(),
		MinCount:       r.int(),
		Counts:         r.strIntMap(),
	}
}

// ---- section: net ----

func encodeNet(w *writer, st *zeroed.ModelState) {
	if st.Net != nil {
		w.bool(true)
		w.int(st.Net.In)
		w.int(st.Net.Hidden1)
		w.int(st.Net.Hidden2)
		w.f64s(st.Net.W1)
		w.f64s(st.Net.W2)
		w.f64s(st.Net.W3)
		w.f64s(st.Net.B1)
		w.f64s(st.Net.B2)
		w.f64(st.Net.B3)
		w.bool(st.Net.Trained)
	} else {
		w.bool(false)
	}
	w.u32(uint32(len(st.Fallback)))
	for _, fl := range st.Fallback {
		w.int(fl.Row)
		w.int(fl.Col)
		w.bool(fl.IsErr)
	}
}

func decodeNet(r *reader, st *zeroed.ModelState) error {
	if r.bool() {
		s := &nn.Snapshot{
			In:      r.int(),
			Hidden1: r.int(),
			Hidden2: r.int(),
			W1:      r.f64s(),
			W2:      r.f64s(),
			W3:      r.f64s(),
			B1:      r.f64s(),
			B2:      r.f64s(),
			B3:      r.f64(),
			Trained: r.bool(),
		}
		st.Net = s
	}
	if n := r.count(17); r.err == nil && n > 0 {
		st.Fallback = make([]zeroed.FallbackLabel, n)
		for i := range st.Fallback {
			st.Fallback[i].Row = r.int()
			st.Fallback[i].Col = r.int()
			st.Fallback[i].IsErr = r.bool()
		}
	}
	return r.done()
}
