package feature

import (
	"fmt"

	"repro/internal/criteria"
	"repro/internal/embed"
	"repro/internal/stats"
	"repro/internal/table"
)

// maxEmbedDim and maxCorrK bound the shape fields a restored snapshot may
// carry, so a corrupt artifact cannot request absurd allocations before the
// cross-checks run.
const (
	maxEmbedDim = 1 << 12
	maxCorrK    = 256
)

// Snapshot is the serializable fitted state of an Extractor: the effective
// config, the correlation structure, the row-derived frequency tables, and
// the installed (refined) criteria sets. Everything else the extractor
// memoizes per value ID — embeddings, pattern tables, criteria verdict
// bits, FD expectation tables — is a pure deterministic function of the
// column dictionaries plus this state, and is rebuilt by FromSnapshot, so
// restored extractors produce bit-identical feature vectors.
type Snapshot struct {
	Cfg Config
	// Corr[j] is the top-k correlated attribute set R_aj.
	Corr [][]int
	// Freq is the frequency-table state (counts cannot be rebuilt without
	// the fitting rows).
	Freq *stats.FreqSnapshot
	// Criteria[j] is the criteria set installed for attribute j at capture
	// time (after refinement); entries may be nil.
	Criteria []*criteria.Set
}

// Snapshot captures the extractor's fitted state. Criteria sets are shared,
// not copied — they are immutable once installed.
func (e *Extractor) Snapshot() *Snapshot {
	s := &Snapshot{
		Cfg:      e.cfg,
		Corr:     make([][]int, len(e.corr)),
		Freq:     e.cf.Snapshot(),
		Criteria: append([]*criteria.Set(nil), e.criteriaSets...),
	}
	for j := range e.corr {
		s.Corr[j] = append([]int(nil), e.corr[j]...)
	}
	return s
}

// FromSnapshot reconstructs an extractor over dataset d, whose per-column
// dictionaries must assign the fit-time IDs to every fit-time value (the
// table.NewFromDicts invariant). Per-value memo tables are rebuilt from the
// dictionaries: the rebuilt extractor covers the full current dictionary
// where the original covered only its construction-time prefix, but both
// compute the same per-value quantities, so feature vectors are
// bit-identical either way. Every shape invariant is validated up front —
// a corrupt snapshot returns an error, never an out-of-range panic on the
// feature hot path. The NMI matrix is not part of the snapshot; scoring
// needs only the correlated sets derived from it.
func FromSnapshot(s *Snapshot, d *table.Dataset) (*Extractor, error) {
	if s == nil {
		return nil, fmt.Errorf("feature: nil snapshot")
	}
	m := d.NumCols()
	cfg := s.Cfg
	if cfg.EmbedDim <= 0 || cfg.EmbedDim > maxEmbedDim {
		return nil, fmt.Errorf("feature: snapshot embed dim %d out of range (0, %d]", cfg.EmbedDim, maxEmbedDim)
	}
	if cfg.CorrK < 0 || cfg.CorrK > maxCorrK {
		return nil, fmt.Errorf("feature: snapshot corr-k %d out of range [0, %d]", cfg.CorrK, maxCorrK)
	}
	if cfg.CorrK > 0 && cfg.CorrK > m-1 {
		return nil, fmt.Errorf("feature: snapshot corr-k %d impossible for %d columns", cfg.CorrK, m)
	}
	if len(s.Corr) != m {
		return nil, fmt.Errorf("feature: snapshot has correlation sets for %d columns, dataset has %d", len(s.Corr), m)
	}
	for j, corr := range s.Corr {
		if len(corr) > cfg.CorrK {
			return nil, fmt.Errorf("feature: column %d has %d correlated attributes, config allows %d", j, len(corr), cfg.CorrK)
		}
		for _, q := range corr {
			if q < 0 || q >= m {
				return nil, fmt.Errorf("feature: column %d correlates with out-of-range column %d", j, q)
			}
		}
	}
	if len(s.Criteria) != m {
		return nil, fmt.Errorf("feature: snapshot has criteria sets for %d columns, dataset has %d", len(s.Criteria), m)
	}
	for j, set := range s.Criteria {
		if set == nil {
			continue
		}
		for _, c := range set.Criteria {
			if c == nil {
				return nil, fmt.Errorf("feature: column %d criteria set contains a nil criterion", j)
			}
		}
	}
	cf, err := stats.FreqFromSnapshot(s.Freq, d)
	if err != nil {
		return nil, err
	}
	e := &Extractor{
		d:   d,
		cfg: cfg,
		emb: embed.New(cfg.EmbedDim),
		cf:  cf,
	}
	e.corr = make([][]int, m)
	for j := range s.Corr {
		e.corr[j] = append([]int(nil), s.Corr[j]...)
	}
	e.embByID = make([][]float64, m)
	for j := range e.embByID {
		dict := d.Dict(j)
		flat := make([]float64, len(dict)*cfg.EmbedDim)
		for id, v := range dict {
			e.emb.EmbedInto(flat[id*cfg.EmbedDim:], v)
		}
		e.embByID[j] = flat
	}
	e.criteriaSets = make([]*criteria.Set, m)
	e.critCols = make([]critColumn, m)
	for j, set := range s.Criteria {
		if set != nil {
			e.SetCriteria(j, set)
		}
	}
	return e, nil
}

// Rebind returns a shallow view of the extractor bound to another dataset:
// all memo tables are shared (read-only on the scoring path), only the
// dataset consulted for value IDs and string fallbacks changes. The target
// dataset must assign the fit-time IDs to every fit-time value — the
// invariant a dataset built by table.NewFromDicts from this extractor's
// dictionaries satisfies. Values the target interned beyond the fit-time
// pools take the extractor's defined cold paths (zero frequency, on-the-fly
// embedding, by-string criteria evaluation).
func (e *Extractor) Rebind(d *table.Dataset) *Extractor {
	out := *e
	out.d = d
	out.cf = e.cf.Rebind(d)
	return &out
}
