// Package feature implements ZeroED's feature representation (Section
// III-B). Each cell gets a base vector f_base = f_stat ⊕ f_pat ⊕ f_sem ⊕
// f_cri:
//
//   - f_stat: value frequency plus vicinity frequencies against the top-k
//     NMI-correlated attributes (the paper defines vicinity frequency over
//     all attributes; restricting to the correlated set is the same
//     efficiency argument Section III-B makes for the unified
//     representation, and keeps Tax-scale memory bounded);
//   - f_pat: pattern frequencies at generalization levels L1..L3;
//   - f_sem: hashed-subword embedding (FastText substitute);
//   - f_cri: binary criteria-adherence features, padded/truncated to a
//     fixed width so that one classifier can consume all attributes.
//
// The unified representation concatenates the cell's base vector with the
// base vectors of its correlated attributes' values in the same tuple:
// Feat(D[i,j]) = f_base(D[i,j]) ⊕ { f_base(D[i,q]) : q ∈ R_aj }.
//
// Every per-value quantity — embedding, pattern frequency, criteria
// verdict — is memoized per dictionary value ID of the columnar dataset:
// computed once per unique value in a single build pass, then read
// lock-free from flat slices on the per-cell hot path. Steady-state
// feature extraction (FeatureInto) performs zero allocations.
package feature

import (
	"math/rand"
	"sort"

	"repro/internal/criteria"
	"repro/internal/embed"
	"repro/internal/randx"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/text"
)

// MaxCriteriaFeatures is the fixed width of the criteria-adherence block.
// Attributes with fewer criteria are padded with 1.0 ("passes"), which is
// the neutral value; extra criteria beyond the cap are ignored.
const MaxCriteriaFeatures = 12

// nmiSampleCap bounds the rows used for the NMI matrix; correlations
// stabilize long before Tax-scale row counts.
const nmiSampleCap = 20000

// nmiSampleSeed seeds the random row sample behind the NMI matrix on
// datasets larger than nmiSampleCap. A uniform sample keeps the
// correlation estimate unbiased on sorted datasets, where a first-n prefix
// would skew it; the fixed seed keeps runs reproducible.
const nmiSampleSeed = 7349

// Config tunes the extractor.
type Config struct {
	// EmbedDim is the semantic embedding width (default embed.DefaultDim).
	EmbedDim int
	// CorrK is the number of correlated attributes per attribute
	// (the paper's default is 2).
	CorrK int
	// DisableCorrelated zeroes the correlated-attribute context — the
	// "w/o Corr." ablation of Table IV. Feature dimensions stay identical
	// so the classifier shape is unchanged.
	DisableCorrelated bool
	// DisableCriteria pads the criteria block with the neutral value —
	// the "w/o Crit." ablation.
	DisableCriteria bool
}

// DefaultConfig mirrors the paper's defaults.
func DefaultConfig() Config {
	return Config{EmbedDim: embed.DefaultDim, CorrK: 2}
}

// critSlot is one criterion of a column's active set, with its
// per-unique-value acceleration tables.
type critSlot struct {
	c      *criteria.Criterion
	rowDep bool
	// FD acceleration: detCol is the determinant attribute's index (-1
	// when absent from the schema) and wantID maps each determinant value
	// ID to the expected value ID of this column (stats.ExpectedDepIDs
	// sentinels).
	detCol int
	wantID []int64
}

// critColumn is the per-value-ID criteria memo for one attribute: bits[id]
// holds the verdict of every row-independent criterion for dict entry id
// (bit k set = slot k passes), nullish[id] its null-likeness (the FD fast
// path). Built in one pass by SetCriteria; read lock-free.
type critColumn struct {
	slots   []critSlot
	bits    []uint16
	nullish []bool
}

// Extractor derives feature vectors for every cell of one dataset.
type Extractor struct {
	d    *table.Dataset
	cfg  Config
	emb  *embed.Embedder
	cf   *stats.ColumnFrequencies
	corr [][]int // top-k correlated attribute indices per attribute

	criteriaSets []*criteria.Set // per attribute, may contain nils
	critCols     []critColumn    // per attribute, rebuilt by SetCriteria

	// embByID[j] holds the embeddings of column j's dict entries,
	// flattened: entry id occupies [id*EmbedDim, (id+1)*EmbedDim). Built
	// once at construction; values interned later (synthetic augmentation)
	// fall back to embedding on the fly.
	embByID [][]float64
}

// NewExtractor scans the dataset, computes frequency tables and the NMI
// correlation structure, and prepares the per-unique-value memo tables.
func NewExtractor(d *table.Dataset, cfg Config) *Extractor {
	if cfg.EmbedDim <= 0 {
		cfg.EmbedDim = embed.DefaultDim
	}
	if cfg.CorrK < 0 {
		cfg.CorrK = 0
	}
	if cfg.CorrK > d.NumCols()-1 {
		cfg.CorrK = d.NumCols() - 1
	}
	e := &Extractor{
		d:   d,
		cfg: cfg,
		emb: embed.New(cfg.EmbedDim),
		cf:  stats.NewColumnFrequencies(d),
	}
	nmiData := d
	if d.NumRows() > nmiSampleCap {
		rng := rand.New(rand.NewSource(nmiSampleSeed))
		rows := randx.PartialPerm(rng, d.NumRows(), nmiSampleCap)
		sort.Ints(rows)
		nmiData = d.SubsetRows(rows)
	}
	nmi := stats.NMIMatrix(nmiData)
	e.corr = make([][]int, d.NumCols())
	for j := range e.corr {
		e.corr[j] = stats.TopKCorrelated(nmi, j, cfg.CorrK)
		e.cf.BuildCoOccur(d, j, e.corr[j])
	}
	e.criteriaSets = make([]*criteria.Set, d.NumCols())
	e.critCols = make([]critColumn, d.NumCols())
	e.embByID = make([][]float64, d.NumCols())
	for j := range e.embByID {
		dict := d.Dict(j)
		flat := make([]float64, len(dict)*cfg.EmbedDim)
		for id, v := range dict {
			e.emb.EmbedInto(flat[id*cfg.EmbedDim:], v)
		}
		e.embByID[j] = flat
	}
	return e
}

// Correlated returns the top-k NMI-correlated attribute indices for
// attribute j (the set R_aj).
func (e *Extractor) Correlated(j int) []int { return e.corr[j] }

// SetCriteria installs the (LLM-derived) criteria set for attribute j so
// that subsequent feature vectors carry its adherence bits, and rebuilds
// the per-value-ID verdict memo for the column in one pass.
func (e *Extractor) SetCriteria(j int, s *criteria.Set) {
	e.criteriaSets[j] = s
	e.critCols[j] = e.buildCritColumn(j, s)
}

// buildCritColumn evaluates every row-independent criterion against every
// dict entry of column j once, and precomputes the FD expectation tables.
func (e *Extractor) buildCritColumn(j int, s *criteria.Set) critColumn {
	var cc critColumn
	if s == nil || len(s.Criteria) == 0 {
		return cc
	}
	n := len(s.Criteria)
	if n > MaxCriteriaFeatures {
		n = MaxCriteriaFeatures
	}
	cc.slots = make([]critSlot, n)
	dict := e.d.Dict(j)
	cc.nullish = make([]bool, len(dict))
	for id, v := range dict {
		cc.nullish[id] = text.IsNullLike(v)
	}
	for k := 0; k < n; k++ {
		c := s.Criteria[k]
		slot := critSlot{c: c, rowDep: c.RowDependent(), detCol: -1}
		if slot.rowDep {
			if dc := e.d.ColIndex(c.DetAttr); dc >= 0 {
				slot.detCol = dc
				slot.wantID = stats.ExpectedDepIDs(e.d, dc, j, c.Mapping, false)
			}
		}
		cc.slots[k] = slot
	}
	cc.bits = make([]uint16, len(dict))
	for id, v := range dict {
		var mask uint16
		for k := range cc.slots {
			if !cc.slots[k].rowDep && cc.slots[k].c.EvalValue(v) {
				mask |= 1 << uint(k)
			}
		}
		cc.bits[id] = mask
	}
	return cc
}

// evalFDSlot evaluates one FD criterion for cell (i, j) with value ID id,
// via the precomputed expectation table when possible.
func (e *Extractor) evalFDSlot(slot *critSlot, i, j int, id uint32, cc *critColumn) bool {
	if int(id) < len(cc.nullish) {
		if cc.nullish[id] {
			return true // null cells pass non-NotNull criteria
		}
	} else if text.IsNullLike(e.d.DictValue(j, id)) {
		return true
	}
	if slot.detCol >= 0 {
		detID := e.d.ValueID(i, slot.detCol)
		if int(detID) < len(slot.wantID) {
			w := slot.wantID[detID]
			if w == stats.DepNoEvidence {
				return true
			}
			if w != stats.DepAbsent {
				return int64(id) == w
			}
			// Expected value absent from the pool at memo-build time: it
			// may have been interned since, so defer to the reference path.
		}
	}
	return slot.c.EvalAt(e.d, i, j)
}

// BaseDim returns the per-cell base feature dimensionality.
func (e *Extractor) BaseDim() int {
	return 1 + e.cfg.CorrK + 3 + e.cfg.EmbedDim + MaxCriteriaFeatures
}

// Dim returns the unified feature dimensionality: base*(1+k).
func (e *Extractor) Dim() int { return e.BaseDim() * (1 + e.cfg.CorrK) }

// base writes f_base(D[i,j]) into out (length BaseDim). Steady state —
// every value present at construction time — is allocation-free: all
// per-value quantities come from the ID-indexed memo tables.
func (e *Extractor) base(i, j int, out []float64) {
	id := e.d.ValueID(i, j)
	p := 0
	// f_stat: value frequency then vicinity frequencies.
	out[p] = e.cf.ValueFrequencyID(j, id)
	p++
	for _, q := range e.corr[j] {
		out[p] = e.cf.VicinityFrequencyID(j, q, id, e.d.ValueID(i, q))
		p++
	}
	for p < 1+e.cfg.CorrK { // fewer correlated attrs than k (tiny schemas)
		out[p] = 0
		p++
	}
	// f_pat: L1..L3 pattern frequencies, memoized per value ID.
	out[p] = e.cf.PatternFrequencyID(j, id, text.L1)
	out[p+1] = e.cf.PatternFrequencyID(j, id, text.L2)
	out[p+2] = e.cf.PatternFrequencyID(j, id, text.L3)
	p += 3
	// f_sem: embedding memoized per value ID.
	dim := e.cfg.EmbedDim
	if flat := e.embByID[j]; (int(id)+1)*dim <= len(flat) {
		copy(out[p:p+dim], flat[int(id)*dim:])
	} else {
		// Value interned after construction (synthetic error value).
		e.emb.EmbedInto(out[p:p+dim], e.d.DictValue(j, id))
	}
	p += dim
	// f_cri: criteria adherence, padded with the neutral pass value.
	cc := &e.critCols[j]
	wrote := 0
	if len(cc.slots) > 0 && !e.cfg.DisableCriteria {
		mask, haveMask := uint16(0), false
		if int(id) < len(cc.bits) {
			mask, haveMask = cc.bits[id], true
		}
		for k := range cc.slots {
			slot := &cc.slots[k]
			var pass bool
			switch {
			case slot.rowDep:
				pass = e.evalFDSlot(slot, i, j, id, cc)
			case haveMask:
				pass = mask&(1<<uint(k)) != 0
			default:
				pass = slot.c.EvalValue(e.d.DictValue(j, id))
			}
			if pass {
				out[p+wrote] = 1
			} else {
				out[p+wrote] = 0
			}
			wrote++
		}
	}
	for ; wrote < MaxCriteriaFeatures; wrote++ {
		out[p+wrote] = 1
	}
}

// FeatureInto writes the unified feature vector for cell (i, j) into out,
// which must have length Dim. It allocates nothing in steady state.
func (e *Extractor) FeatureInto(i, j int, out []float64) {
	bd := e.BaseDim()
	e.base(i, j, out[:bd])
	written := bd
	if !e.cfg.DisableCorrelated {
		for idx, q := range e.corr[j] {
			e.base(i, q, out[(1+idx)*bd:(2+idx)*bd])
			written += bd
		}
	}
	// Zero any unwritten tail (ablation, or fewer correlated attrs than
	// CorrK on tiny schemas) so reused buffers never leak stale values.
	for k := written; k < len(out); k++ {
		out[k] = 0
	}
}

// RowFeaturesInto writes the unified feature vectors of every cell of row
// i into tile, a caller-owned flat row-major block of length
// NumCols()*Dim() (cell j occupies tile[j*Dim() : (j+1)*Dim()]). Each base
// vector is computed exactly once, directly into its own cell's leading
// block, and correlated-context blocks are filled by copying — no
// intermediate buffer, no allocation. This is the scoring hot path: one
// reusable tile per scoring shard serves the whole dataset.
func (e *Extractor) RowFeaturesInto(i int, tile []float64) {
	m := e.d.NumCols()
	bd := e.BaseDim()
	dim := e.Dim()
	// Pass 1: every cell's base vector lands at offset 0 of its own block.
	for j := 0; j < m; j++ {
		e.base(i, j, tile[j*dim:j*dim+bd])
	}
	// Pass 2: correlated blocks copy from the already-computed bases.
	for j := 0; j < m; j++ {
		f := tile[j*dim : (j+1)*dim]
		written := bd
		if !e.cfg.DisableCorrelated {
			for idx, q := range e.corr[j] {
				copy(f[(1+idx)*bd:(2+idx)*bd], tile[q*dim:q*dim+bd])
				written += bd
			}
		}
		for k := written; k < dim; k++ {
			f[k] = 0
		}
	}
}

// FeaturesInto writes the unified feature vectors of attribute j for the
// given rows into tile, a caller-owned flat row-major block of length
// len(rows)*Dim() — the clustering input for sampling (Section III-C). It
// allocates nothing in steady state.
func (e *Extractor) FeaturesInto(j int, rows []int, tile []float64) {
	dim := e.Dim()
	for idx, i := range rows {
		e.FeatureInto(i, j, tile[idx*dim:(idx+1)*dim])
	}
}

// DepCols returns the sorted set of column indices whose value IDs in a
// tuple fully determine FeatureInto(i, j): the cell's own column, the
// columns feeding its vicinity frequencies and correlated-context base
// vectors, those columns' own vicinity inputs, and the determinant columns
// of any FD criteria in play. Two rows that agree on these columns' value
// IDs produce bit-identical feature vectors for attribute j — the key
// contract behind the engine's score-dedup cache.
//
// The result reflects the criteria sets installed at call time; callers
// must re-derive it after SetCriteria (the engine computes it once per
// scoring pass, after criteria refinement has settled).
func (e *Extractor) DepCols(j int) []int {
	dep := map[int]bool{}
	// Base vectors included in the unified representation: the cell's own,
	// plus its correlated attributes' (unless ablated).
	baseCols := []int{j}
	if !e.cfg.DisableCorrelated {
		baseCols = append(baseCols, e.corr[j]...)
	}
	for _, b := range baseCols {
		dep[b] = true
		// f_stat vicinity frequencies pair b's value with each correlated
		// attribute's value (computed even under the Corr. ablation — the
		// ablation zeroes context blocks, not the base's own vicinity).
		for _, q := range e.corr[b] {
			dep[q] = true
		}
		// FD criteria read the determinant attribute of the same tuple.
		if !e.cfg.DisableCriteria {
			for k := range e.critCols[b].slots {
				if dc := e.critCols[b].slots[k].detCol; dc >= 0 {
					dep[dc] = true
				}
			}
		}
	}
	out := make([]int, 0, len(dep))
	for c := range dep {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
