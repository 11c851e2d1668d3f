// Package stats implements the statistical machinery of ZeroED's feature
// representation and attribute-correlation analysis: value, vicinity and
// pattern frequencies (Section III-B), entropy and normalized mutual
// information between attributes, and quantile/histogram summaries used by
// the distribution-analysis step of guideline generation.
package stats

import (
	"math"
	"sort"

	"repro/internal/table"
	"repro/internal/text"
)

// ColumnFrequencies precomputes per-attribute counts used by the frequency
// features so that feature extraction is O(cells), not O(cells^2). All
// tables are indexed by dictionary value ID: counts live in flat slices
// sized by each column's intern pool, pattern strings are interned once per
// unique value, and co-occurrence counts are keyed by packed ID pairs.
// Lookups for values written to the dataset after construction fall back to
// zero counts, matching the semantics of a novel value.
type ColumnFrequencies struct {
	d *table.Dataset
	n int
	// counts[j][id] is the occurrence count of value ID id in attribute j.
	counts [][]int
	// patOfID[lvl][j][id] is the column-local pattern ID of dict entry id
	// at generalization level lvl+1; patCounts[lvl][j][pid] its count.
	patOfID   [3][][]uint32
	patCounts [3][][]int
	// patIndex[lvl][j] maps pattern strings to pattern IDs, for values
	// interned after the scan.
	patIndex [3][]map[string]uint32
	// coOccur[{j,q}][idj<<32|idq] counts co-occurrences between attributes
	// j and q; used for vicinity frequencies.
	coOccur map[[2]int]map[uint64]int
}

// NewColumnFrequencies scans the dataset once and builds all count tables.
// Per-value work (pattern generalization) happens once per unique value,
// not once per cell.
func NewColumnFrequencies(d *table.Dataset) *ColumnFrequencies {
	m := d.NumCols()
	cf := &ColumnFrequencies{
		d:       d,
		n:       d.NumRows(),
		counts:  make([][]int, m),
		coOccur: make(map[[2]int]map[uint64]int),
	}
	for lvl := 0; lvl < 3; lvl++ {
		cf.patOfID[lvl] = make([][]uint32, m)
		cf.patCounts[lvl] = make([][]int, m)
		cf.patIndex[lvl] = make([]map[string]uint32, m)
	}
	for j := 0; j < m; j++ {
		dict := d.Dict(j)
		cf.counts[j] = make([]int, len(dict))
		for lvl := 0; lvl < 3; lvl++ {
			cf.patOfID[lvl][j] = make([]uint32, len(dict))
			cf.patIndex[lvl][j] = make(map[string]uint32)
			for id, v := range dict {
				p := text.Generalize(v, text.PatternLevel(lvl+1))
				pid, ok := cf.patIndex[lvl][j][p]
				if !ok {
					pid = uint32(len(cf.patCounts[lvl][j]))
					cf.patIndex[lvl][j][p] = pid
					cf.patCounts[lvl][j] = append(cf.patCounts[lvl][j], 0)
				}
				cf.patOfID[lvl][j][id] = pid
			}
		}
		for _, id := range d.ColumnIDs(j) {
			cf.counts[j][id]++
			for lvl := 0; lvl < 3; lvl++ {
				cf.patCounts[lvl][j][cf.patOfID[lvl][j][id]]++
			}
		}
	}
	return cf
}

// BuildCoOccur populates pairwise co-occurrence counts between attribute j
// and each attribute in others. Computed lazily because only correlated
// attribute pairs need it.
func (cf *ColumnFrequencies) BuildCoOccur(d *table.Dataset, j int, others []int) {
	jIDs := d.ColumnIDs(j)
	for _, q := range others {
		key := [2]int{j, q}
		if _, ok := cf.coOccur[key]; ok {
			continue
		}
		counts := make(map[uint64]int)
		qIDs := d.ColumnIDs(q)
		for i := range jIDs {
			counts[uint64(jIDs[i])<<32|uint64(qIDs[i])]++
		}
		cf.coOccur[key] = counts
	}
}

// ValueFrequencyID returns count(value ID id in attr j) / N. IDs interned
// after the scan have zero frequency.
func (cf *ColumnFrequencies) ValueFrequencyID(j int, id uint32) float64 {
	if cf.n == 0 || int(id) >= len(cf.counts[j]) {
		return 0
	}
	return float64(cf.counts[j][id]) / float64(cf.n)
}

// VicinityFrequencyID returns count(idj co-occurring with idq) /
// count(idq): how often the value idq in attribute q determines idj in
// attribute j. BuildCoOccur must have been called for the (j,q) pair.
func (cf *ColumnFrequencies) VicinityFrequencyID(j, q int, idj, idq uint32) float64 {
	if int(idq) >= len(cf.counts[q]) {
		return 0
	}
	denom := cf.counts[q][idq]
	if denom == 0 {
		return 0
	}
	co := cf.coOccur[[2]int{j, q}]
	if co == nil {
		return 0
	}
	return float64(co[uint64(idj)<<32|uint64(idq)]) / float64(denom)
}

// PatternFrequencyID returns the fraction of values in attribute j whose
// generalized pattern at the given level matches that of value ID id.
// Patterns first seen after the scan have zero frequency.
func (cf *ColumnFrequencies) PatternFrequencyID(j int, id uint32, level text.PatternLevel) float64 {
	if cf.n == 0 {
		return 0
	}
	lvl := int(level) - 1
	ofID := cf.patOfID[lvl][j]
	var pid uint32
	if int(id) < len(ofID) {
		pid = ofID[id]
	} else {
		// Value interned after the scan: resolve its pattern by string.
		var ok bool
		if pid, ok = cf.patIndex[lvl][j][text.Generalize(cf.d.DictValue(j, id), level)]; !ok {
			return 0
		}
	}
	counts := cf.patCounts[lvl][j]
	if int(pid) >= len(counts) {
		return 0
	}
	return float64(counts[pid]) / float64(cf.n)
}

// CountsByID returns per-value-ID occurrence counts for column j of d,
// indexed by dictionary ID (stale pool entries count zero).
func CountsByID(d *table.Dataset, j int) []int {
	counts := make([]int, d.DictSize(j))
	for _, id := range d.ColumnIDs(j) {
		counts[id]++
	}
	return counts
}

// NullishByID returns per-value-ID null-likeness for column j of d —
// computed once per unique value instead of once per cell.
func NullishByID(d *table.Dataset, j int) []bool {
	dict := d.Dict(j)
	out := make([]bool, len(dict))
	for id, v := range dict {
		out[id] = text.IsNullLike(v)
	}
	return out
}

// Sentinels of ExpectedDepIDs.
const (
	// DepNoEvidence marks determinant values carrying no mapping evidence
	// (the dependent cell passes by default).
	DepNoEvidence = int64(-2)
	// DepAbsent marks expected dependent values never written to the
	// dependent column's pool (no cell ID can equal them).
	DepAbsent = int64(-1)
)

// ExpectedDepIDs resolves an FD mapping (determinant value → expected
// dependent value) into expected dependent value IDs per determinant value
// ID, so per-row FD checks become integer comparisons. skipNullDet treats
// null-like determinants as carrying no evidence.
func ExpectedDepIDs(d *table.Dataset, det, dep int, mapping map[string]string, skipNullDet bool) []int64 {
	detDict := d.Dict(det)
	out := make([]int64, len(detDict))
	for did, dv := range detDict {
		out[did] = DepNoEvidence
		if skipNullDet && text.IsNullLike(dv) {
			continue
		}
		want, ok := mapping[dv]
		if !ok {
			continue
		}
		if wid, found := d.LookupID(dep, want); found {
			out[did] = int64(wid)
		} else {
			out[did] = DepAbsent
		}
	}
	return out
}

// stableSum adds terms in sorted order, making float accumulation
// independent of the (randomized) map iteration that produced them.
func stableSum(terms []float64) float64 {
	sort.Float64s(terms)
	s := 0.0
	for _, t := range terms {
		s += t
	}
	return s
}

// NMIMatrix computes the normalized mutual information of Section III-B,
// I(X;Y)/sqrt(H(X)H(Y)) in [0,1], between every pair of attributes of d,
// with a unit diagonal. Degenerate (constant) attributes have zero entropy
// and yield NMI 0. It works over dictionary value IDs, counting integer IDs
// instead of hashing value strings, and every entropy and mutual
// information sum goes through the order-independent stableSum, so the
// matrix is bit-identical across runs.
func NMIMatrix(d *table.Dataset) [][]float64 {
	m := d.NumCols()
	n := d.NumRows()
	ids := make([][]uint32, m)
	counts := make([][]float64, m)
	entropy := make([]float64, m)
	for j := 0; j < m; j++ {
		ids[j] = d.ColumnIDs(j)
		counts[j] = make([]float64, d.DictSize(j))
		for _, id := range ids[j] {
			counts[j][id]++
		}
		entropy[j] = entropyFromCounts(counts[j], float64(n))
	}
	mat := make([][]float64, m)
	for j := range mat {
		mat[j] = make([]float64, m)
		mat[j][j] = 1
	}
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			var v float64
			if n > 0 && entropy[a] != 0 && entropy[b] != 0 {
				v = miIDs(ids[a], ids[b], counts[a], counts[b], float64(n)) / math.Sqrt(entropy[a]*entropy[b])
				if v > 1 {
					v = 1 // floating-point guard
				}
			}
			mat[a][b] = v
			mat[b][a] = v
		}
	}
	return mat
}

// entropyFromCounts computes the Shannon entropy (nats) of a column's
// empirical value distribution from its per-value-ID count vector (zero
// entries are skipped; they denote dict values absent from the column).
func entropyFromCounts(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	terms := make([]float64, 0, len(counts))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := c / n
		terms = append(terms, -p*math.Log(p))
	}
	return stableSum(terms)
}

// miIDs computes the mutual information I(X;Y) in nats of two ID-encoded
// columns with precomputed marginal counts.
func miIDs(x, y []uint32, cx, cy []float64, n float64) float64 {
	joint := make(map[uint64]float64, len(cx))
	for i := range x {
		joint[uint64(x[i])<<32|uint64(y[i])]++
	}
	terms := make([]float64, 0, len(joint))
	for k, c := range joint {
		pj := c / n
		px := cx[uint32(k>>32)] / n
		py := cy[uint32(k)] / n
		terms = append(terms, pj*math.Log(pj/(px*py)))
	}
	mi := stableSum(terms)
	if mi < 0 {
		mi = 0 // guard against floating-point round-off
	}
	return mi
}

// TopKCorrelated returns the indices of the k attributes with the highest
// NMI to attribute j (excluding j itself), forming the correlative
// attribute set R_aj of Section III-B. Ties break by attribute index for
// determinism.
func TopKCorrelated(nmi [][]float64, j, k int) []int {
	type pair struct {
		idx int
		v   float64
	}
	var ps []pair
	for q := range nmi[j] {
		if q == j {
			continue
		}
		ps = append(ps, pair{q, nmi[j][q]})
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].v != ps[b].v {
			return ps[a].v > ps[b].v
		}
		return ps[a].idx < ps[b].idx
	})
	if k > len(ps) {
		k = len(ps)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ps[i].idx
	}
	return out
}

// Quantile returns the q-quantile (0..1) of the sorted copy of xs using
// linear interpolation. Empty input yields 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MeanStd returns the mean and (population) standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// NumericColumn extracts all parseable numeric values from a column.
func NumericColumn(values []string) []float64 {
	var out []float64
	for _, v := range values {
		if f, ok := text.ParseFloat(v); ok {
			out = append(out, f)
		}
	}
	return out
}
