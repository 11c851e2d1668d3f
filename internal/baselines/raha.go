package baselines

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/text"
)

// Raha reproduces the configuration-free Raha detector: a library of
// unsupervised detection strategies is run over every cell; each cell's
// strategy-output bit vector becomes its feature; cells of each column are
// clustered; a small budget of human-labeled tuples seeds cluster labels,
// which propagate to cluster members. Detection quality therefore scales
// with the labeling budget — the paper's Fig. 6 sweeps it from 1 to 45
// tuples, and grants 2 tuples in Table III.
type Raha struct {
	// LabelBudget is the number of tuples the human labels (default 2).
	LabelBudget int
	// Oracle reveals ground-truth cell labels for a tuple.
	Oracle LabelOracle
	Seed   int64
}

// NewRaha builds Raha with the paper's minimal-effort default of 2 labeled
// tuples.
func NewRaha(oracle LabelOracle) *Raha {
	return &Raha{LabelBudget: 2, Oracle: oracle}
}

// Name implements Method.
func (b *Raha) Name() string { return "Raha" }

// Detect implements Method.
func (b *Raha) Detect(d *table.Dataset) ([][]bool, error) {
	if b.Oracle == nil {
		return nil, fmt.Errorf("raha: label oracle required")
	}
	budget := b.LabelBudget
	if budget < 1 {
		budget = 1
	}
	n := d.NumRows()
	if budget > n {
		budget = n
	}
	rng := rand.New(rand.NewSource(b.Seed + 17))

	// Run the strategy library.
	feats := strategyFeatures(d)

	// Label budget tuples (seeded sample, as Raha's tuple sampler).
	labeledRows := rng.Perm(n)[:budget]
	rowLabels := make(map[int][]bool, budget)
	for _, r := range labeledRows {
		rowLabels[r] = b.Oracle(r)
	}

	pred := newMask(d)
	for j := 0; j < d.NumCols(); j++ {
		// Cells sharing an identical strategy-output vector form one
		// cluster — the fixed point of Raha's feature clustering, since
		// the vectors are discrete. Labeled cells vote within their
		// cluster (majority, ties dirty); unlabeled clusters default to
		// the majority class (clean).
		group := make(map[string]int, 32)
		assign := make([]int, n)
		for i := 0; i < n; i++ {
			key := bitKey(feats[i][j])
			g, ok := group[key]
			if !ok {
				g = len(group)
				group[key] = g
			}
			assign[i] = g
		}
		dirtyVotes := make(map[int]int)
		cleanVotes := make(map[int]int)
		for _, r := range labeledRows {
			g := assign[r]
			if rowLabels[r][j] {
				dirtyVotes[g]++
			} else {
				cleanVotes[g]++
			}
		}
		// Propagated labels from voted clusters train a per-column
		// classifier that generalizes to unlabeled clusters (Raha's final
		// per-column model).
		var trainX [][]float64
		var trainY []float64
		labelOfGroup := make(map[int]bool)
		for g := range dirtyVotes {
			labelOfGroup[g] = true
		}
		for g := range cleanVotes {
			if _, ok := labelOfGroup[g]; !ok {
				labelOfGroup[g] = false
			}
		}
		for g := range labelOfGroup {
			labelOfGroup[g] = dirtyVotes[g] >= cleanVotes[g] && dirtyVotes[g] > 0
		}
		for i := 0; i < n; i++ {
			g := assign[i]
			if lbl, ok := labelOfGroup[g]; ok {
				x := append([]float64{1}, feats[i][j]...)
				trainX = append(trainX, x)
				if lbl {
					trainY = append(trainY, 1)
				} else {
					trainY = append(trainY, 0)
				}
			}
		}
		w, ok := logisticFit(trainX, trainY, 150, 0.8)
		for i := 0; i < n; i++ {
			g := assign[i]
			if lbl, voted := labelOfGroup[g]; voted {
				pred[i][j] = lbl
			} else if ok {
				pred[i][j] = logisticPredict(w, append([]float64{1}, feats[i][j]...)) >= 0.5
			}
		}
	}
	return pred, nil
}

// bitKey encodes a strategy bit vector as a compact map key.
func bitKey(bits []float64) string {
	b := make([]byte, len(bits))
	for i, v := range bits {
		if v > 0.5 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// strategyFeatures runs Raha's strategy library and returns, for each cell,
// the bit vector of strategy verdicts. All strategies except the FD check
// depend only on the cell's value, so their verdicts are computed once per
// unique value (dictionary entry) and broadcast to cells by value ID; the
// FD check compares precomputed expected-value IDs per row.
func strategyFeatures(d *table.Dataset) [][][]float64 {
	n, m := d.NumRows(), d.NumCols()
	const numStrategies = 11

	// Per-column, per-unique-value verdicts for strategies 0..9.
	valueBits := make([][][numStrategies]float64, m)
	for j := 0; j < m; j++ {
		dict := d.Dict(j)
		counts := stats.CountsByID(d, j)
		nullish := stats.NullishByID(d, j)
		parsedOf, okOf, numeric := numericByID(d, j, counts, 0.9)
		patCount := map[string]int{}
		patOf := make([]string, len(dict))
		for id, v := range dict {
			patOf[id] = text.Generalize(v, text.L3)
			patCount[patOf[id]] += counts[id]
		}
		var mean, std float64
		if numeric {
			var nums []float64
			for _, id := range d.ColumnIDs(j) {
				if okOf[id] {
					nums = append(nums, parsedOf[id])
				}
			}
			mean, std = stats.MeanStd(nums)
		}
		minFreq := n / 100
		if minFreq < 3 {
			minFreq = 3
		}
		var frequent []string
		for id, v := range dict {
			if counts[id] >= minFreq && !nullish[id] {
				frequent = append(frequent, v)
			}
		}
		sortStrs(frequent)
		if len(frequent) > 100 {
			frequent = frequent[:100]
		}

		bits := make([][numStrategies]float64, len(dict))
		for id, v := range dict {
			f := &bits[id]
			s := 0
			mark := func(cond bool) {
				if cond {
					f[s] = 1
				}
				s++
			}
			mark(nullish[id])
			for _, eps := range []float64{0.001, 0.005, 0.02} {
				mark(float64(counts[id]) <= eps*float64(n))
			}
			for _, eps := range []float64{0.001, 0.005, 0.02} {
				mark(float64(patCount[patOf[id]]) <= eps*float64(n))
			}
			if numeric {
				mark(!okOf[id] && !nullish[id])
				mark(okOf[id] && std > 0 && (parsedOf[id] > mean+3*std || parsedOf[id] < mean-3*std))
			} else {
				s += 2
			}
			// Typo proximity to a frequent value: once per unique value,
			// not once per cell.
			typo := false
			if !nullish[id] && counts[id] <= 2 {
				for _, fv := range frequent {
					if dist := text.Levenshtein(v, fv); dist > 0 && dist <= 2 {
						typo = true
						break
					}
				}
			}
			mark(typo)
		}
		valueBits[j] = bits
	}

	// Mined FDs for the rule-violation strategy, as the majority dependent
	// value ID per determinant group. One grouping per determinant serves
	// every dependent.
	type fdRule struct {
		groups *stats.FDGroups
		dep    int
		wantID []int32
	}
	var fds []fdRule
	for det := 0; det < m; det++ {
		if float64(d.DistinctCount(det)) > 0.5*float64(n) {
			continue
		}
		groups := stats.GroupFD(d, det, nil)
		for dep := 0; dep < m; dep++ {
			if det == dep {
				continue
			}
			if maj := groups.Majority(dep); maj.Support >= 0.95 && maj.Groups >= 2 {
				fds = append(fds, fdRule{groups, dep, slices.Clone(maj.Want)})
			}
		}
	}

	out := make([][][]float64, n)
	flat := make([]float64, n*m*numStrategies)
	for i := 0; i < n; i++ {
		out[i] = make([][]float64, m)
		for j := 0; j < m; j++ {
			f := flat[(i*m+j)*numStrategies : (i*m+j+1)*numStrategies]
			id := d.ValueID(i, j)
			copy(f, valueBits[j][id][:])
			for _, fd := range fds {
				if fd.dep != j {
					continue
				}
				if k := fd.groups.Group(i); k >= 0 && uint32(fd.wantID[k]) != id {
					f[numStrategies-1] = 1
					break
				}
			}
			out[i][j] = f
		}
	}
	return out
}

func sortStrs(xs []string) {
	for i := 1; i < len(xs); i++ {
		for k := i; k > 0 && xs[k] < xs[k-1]; k-- {
			xs[k], xs[k-1] = xs[k-1], xs[k]
		}
	}
}
