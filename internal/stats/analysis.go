package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/table"
	"repro/internal/text"
)

// AttributeProfile is the structured result of "executing the LLM-generated
// distribution-analysis functions" over a whole attribute (Fig. 5 of the
// paper). It summarizes exactly the signals the guideline-generation and
// labeling steps consume: missing-value rate, dominant formats, frequent
// values, numeric range, and the strongest functional dependency evidence.
type AttributeProfile struct {
	Attr          string
	Total         int
	Missing       int
	Distinct      int
	TopValues     []ValueCount // most frequent values, descending
	RareValues    []ValueCount // values with frequency below 1%
	TopPatterns   []ValueCount // most frequent L3 patterns
	DominantShare float64      // share of the single most frequent L3 pattern
	Numeric       bool
	Min, Max      float64 // numeric range (valid when Numeric)
	Mean, Std     float64
	Q1, Q3        float64
}

// ValueCount pairs a value (or pattern) with its occurrence count.
type ValueCount struct {
	Value string
	Count int
}

// topCounts returns the top-k entries of a count map by descending count,
// ties broken lexicographically for determinism.
func topCounts(m map[string]int, k int) []ValueCount {
	out := make([]ValueCount, 0, len(m))
	for v, c := range m {
		out = append(out, ValueCount{v, c})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Value < out[b].Value
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// ProfileAttribute runs the full-dataset distribution analysis for one
// attribute. This is the deterministic stand-in for executing the paper's
// generated Python analysis functions over the dirty CSV.
func ProfileAttribute(d *table.Dataset, j int) *AttributeProfile {
	p := &AttributeProfile{Attr: d.Attrs[j], Total: d.NumRows()}

	// Count by value ID, then do per-value work (generalization,
	// null-likeness, numeric parsing) once per pool entry.
	dict := d.Dict(j)
	counts := make([]int, len(dict))
	for _, id := range d.ColumnIDs(j) {
		counts[id]++
	}
	valueCounts := make(map[string]int)
	patternCounts := make(map[string]int)
	for id, c := range counts {
		if c == 0 {
			continue
		}
		v := dict[id]
		valueCounts[v] = c
		patternCounts[text.Generalize(v, text.L3)] += c
		if text.IsNullLike(v) {
			p.Missing += c
		}
	}
	p.Distinct = len(valueCounts)
	p.TopValues = topCounts(valueCounts, 10)
	p.TopPatterns = topCounts(patternCounts, 5)
	if len(p.TopPatterns) > 0 && p.Total > 0 {
		p.DominantShare = float64(p.TopPatterns[0].Count) / float64(p.Total)
	}
	for v, c := range valueCounts {
		if float64(c)/float64(p.Total) < 0.01 {
			p.RareValues = append(p.RareValues, ValueCount{v, c})
		}
	}
	sort.Slice(p.RareValues, func(a, b int) bool { return p.RareValues[a].Value < p.RareValues[b].Value })
	if len(p.RareValues) > 50 {
		p.RareValues = p.RareValues[:50]
	}

	// Numeric profiling: parse each unique value once, then expand in row
	// order so the accumulation matches the row-major implementation
	// bit-for-bit.
	parsedOf := make([]float64, len(dict))
	okOf := make([]bool, len(dict))
	parsed, nonEmpty := 0, 0
	for id, c := range counts {
		if c == 0 {
			continue
		}
		v := dict[id]
		if f, ok := text.ParseFloat(v); ok {
			parsedOf[id], okOf[id] = f, true
		}
		if strings.TrimSpace(v) != "" {
			nonEmpty += c
			if okOf[id] {
				parsed += c
			}
		}
	}
	if nonEmpty > 0 && float64(parsed)/float64(nonEmpty) >= 0.85 {
		nums := make([]float64, 0, parsed)
		for _, id := range d.ColumnIDs(j) {
			if okOf[id] {
				nums = append(nums, parsedOf[id])
			}
		}
		if len(nums) > 0 {
			p.Numeric = true
			p.Min, p.Max = nums[0], nums[0]
			for _, x := range nums {
				if x < p.Min {
					p.Min = x
				}
				if x > p.Max {
					p.Max = x
				}
			}
			p.Mean, p.Std = MeanStd(nums)
			p.Q1 = Quantile(nums, 0.25)
			p.Q3 = Quantile(nums, 0.75)
		}
	}
	return p
}

// Report renders the profile as the textual "analysis results" string that
// would be embedded in the guideline-generation prompt. Its length feeds
// token accounting.
func (p *AttributeProfile) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**Analysis results for %q:**\n", p.Attr)
	fmt.Fprintf(&b, "Total records: %d\n", p.Total)
	fmt.Fprintf(&b, "Missing values: %d (%.2f%%)\n", p.Missing, 100*float64(p.Missing)/float64(max(p.Total, 1)))
	fmt.Fprintf(&b, "Distinct values: %d\n", p.Distinct)
	fmt.Fprintf(&b, "Top values: ")
	for i, vc := range p.TopValues {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%q x%d", vc.Value, vc.Count)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "Top patterns (L3): ")
	for i, vc := range p.TopPatterns {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s x%d", vc.Value, vc.Count)
	}
	fmt.Fprintf(&b, "\nDominant pattern share: %.3f\n", p.DominantShare)
	if p.Numeric {
		fmt.Fprintf(&b, "Numeric range: [%g, %g], mean %.3f, std %.3f, IQR [%.3f, %.3f]\n",
			p.Min, p.Max, p.Mean, p.Std, p.Q1, p.Q3)
	}
	fmt.Fprintf(&b, "Rare values (<1%%): %d shown\n", len(p.RareValues))
	return b.String()
}

// FDCandidate describes evidence that attribute Det functionally determines
// attribute Dep: for each determinant value the dominant dependent value
// covers Support of rows on average.
type FDCandidate struct {
	Det, Dep int
	Support  float64 // average share of the majority dependent value
	// Mapping holds, for each determinant value seen at least twice, the
	// majority dependent value.
	Mapping map[string]string
}

// FindFD measures how well column det determines column dep in d. It
// returns a candidate with the majority mapping and its average support;
// the simulated LLM's rule-violation reasoning and criteria induction read
// it. It costs O(rows) per determinant, to group rows by det's value IDs,
// plus O(group rows) per dependent, to count dep over the rows in groups
// of two or more. Callers that pair one determinant with many dependents
// call GroupFD once and Majority per dependent.
func FindFD(d *table.Dataset, det, dep int) FDCandidate {
	return GroupFD(d, det, nil).Candidate(dep)
}

// FDGroups holds the rows of one determinant column bucketed by value ID,
// so every dependent paired with it is counted without regrouping. Only
// groups of two or more rows are kept: null-like determinants and
// singleton groups carry no dependency evidence.
type FDGroups struct {
	d    *table.Dataset
	mask [][]bool
	det  int
	// Group k holds determinant value ID ids[k] on rows
	// rows[bounds[k]:bounds[k+1]], in ascending row order; groups are in
	// order of first appearance.
	ids    []int32
	bounds []int32
	rows   []int32
	votes  []int32 // dependent value ID per entry of rows
	group  []int32 // group index of each row of d, or -1
	want   []int32 // Majority's result, indexed by group
}

// FDMajority is the value-ID form of an FDCandidate for one dependent.
type FDMajority struct {
	Support float64 // average share of the majority dependent value
	Groups  int     // determinant values seen at least twice
	// Want[k] is the majority dependent value ID (see DepValue) of group
	// k, the rows Group maps to k. The slice belongs to the FDGroups and
	// is overwritten by its next Majority call.
	Want []int32
}

// zeroed32 pools int32 scratch arrays indexed by value ID. An array is all
// zero when handed out and must be all zero again when returned, so a user
// that clears only the entries it touched pays O(entries touched) per use,
// not O(dictionary): a request-sized Derive of a large fitted dictionary
// is counted and grouped in O(rows).
var zeroed32 sync.Pool

func getZeroed32(n int) *[]int32 {
	if p, ok := zeroed32.Get().(*[]int32); ok && len(*p) >= n {
		return p
	}
	a := make([]int32, n)
	return &a
}

// PresentIDs returns the distinct value IDs of column col on the rows mask
// leaves unflagged (every row under a nil mask), in order of first
// appearance, and the row count of each. It visits only those rows and the
// IDs on them, so it costs O(rows) however large the column's dictionary
// is. A freshly loaded column numbers its values in order of first
// appearance, so there the order is ascending; a Derive'd dataset gets the
// same values in the same order as the fresh load of the same rows.
func PresentIDs(d *table.Dataset, col int, mask [][]bool) (ids, counts []int32) {
	colIDs := d.ColumnIDs(col)
	scratch := getZeroed32(d.DictSize(col))
	seen := *scratch
	ids = make([]int32, 0, min(len(colIDs), d.DictSize(col)))
	for i, id := range colIDs {
		if mask != nil && mask[i][col] {
			continue
		}
		if seen[id] == 0 {
			ids = append(ids, int32(id))
		}
		seen[id]++
	}
	counts = make([]int32, len(ids))
	for k, id := range ids {
		counts[k], seen[id] = seen[id], 0
	}
	zeroed32.Put(scratch)
	return ids, counts
}

// GroupFD buckets d's rows by their value ID in column det with one
// counting sort. A non-nil mask marks flagged cells: a flagged determinant
// cell is skipped like a null-like one, and a flagged dependent cell votes
// for "" in Majority. Like PresentIDs it visits only the IDs present, in
// order of first appearance, so it costs O(rows) however large the
// dictionary is.
func GroupFD(d *table.Dataset, det int, mask [][]bool) *FDGroups {
	detIDs, dict := d.ColumnIDs(det), d.Dict(det)
	present, counts := PresentIDs(d, det, mask)
	// slot[id] is one past the next free entry of id's group in rows, or
	// zero when id heads no group.
	scratch := getZeroed32(len(dict))
	slot := *scratch
	g := &FDGroups{d: d, mask: mask, det: det, bounds: []int32{0}}
	for k, id := range present {
		// Null-likeness is a per-value property: test it only for values
		// heading a group of two or more rows.
		if c := counts[k]; c >= 2 && !text.IsNullLike(dict[id]) {
			lo := g.bounds[len(g.bounds)-1]
			slot[id] = lo + 1
			g.ids = append(g.ids, id)
			g.bounds = append(g.bounds, lo+c)
		}
	}
	g.rows = make([]int32, g.bounds[len(g.bounds)-1])
	g.votes = make([]int32, len(g.rows))
	g.want = make([]int32, len(g.ids))
	for i, id := range detIDs {
		if slot[id] == 0 || (mask != nil && mask[i][det]) {
			continue
		}
		g.rows[slot[id]-1] = int32(i)
		slot[id]++
	}
	for _, id := range g.ids {
		slot[id] = 0
	}
	zeroed32.Put(scratch)
	g.group = make([]int32, len(detIDs))
	for i := range g.group {
		g.group[i] = -1
	}
	for k := range g.ids {
		for _, r := range g.rows[g.bounds[k]:g.bounds[k+1]] {
			g.group[r] = int32(k)
		}
	}
	return g
}

// Group returns the index of the group holding row i, or -1 when the
// grouping left the row out (flagged, null-like or singleton determinant).
func (g *FDGroups) Group(i int) int { return int(g.group[i]) }

// DepValue returns the string of a dependent value ID from Want: ID
// DictSize(dep) stands for the "" a flagged cell votes for when "" is not
// in dep's dictionary.
func (g *FDGroups) DepValue(dep int, id int32) string {
	return depValue(g.d.Dict(dep), id)
}

func depValue(dict []string, id int32) string {
	if int(id) == len(dict) {
		return ""
	}
	return dict[id]
}

// Majority counts dependent column dep within every group in one count
// array indexed by value ID and picks each group's majority value: the
// highest count, ties broken by the lowest string. It costs O(group rows);
// the count array comes from a pool and is cleared entry by entry.
func (g *FDGroups) Majority(dep int) FDMajority {
	depIDs, dict := g.d.ColumnIDs(dep), g.d.Dict(dep)
	n := len(dict)
	flagged := int32(n) // the ID a flagged dependent cell votes for
	if id, ok := g.d.LookupID(dep, ""); ok && g.mask != nil {
		flagged = int32(id)
	}
	scratch := getZeroed32(n + 1)
	counts := *scratch
	// Gather every grouped row's vote once, in group order, so both passes
	// below run sequentially over one array.
	votes := g.votes
	for k, r := range g.rows {
		votes[k] = int32(depIDs[r])
		if g.mask != nil && g.mask[r][dep] {
			votes[k] = flagged
		}
	}
	// Weights are integers, so summing them as ints and converting once
	// gives the same float64 bits as summing floats group by group.
	weight, support := 0, 0
	for k := range g.ids {
		group := votes[g.bounds[k]:g.bounds[k+1]]
		for _, v := range group {
			counts[v]++
		}
		// Visit each distinct value once, at its first row, clearing its
		// count so the array is zero again for the next group.
		best, bestC := int32(-1), int32(0)
		for _, v := range group {
			c := counts[v]
			if c == 0 {
				continue
			}
			counts[v] = 0
			if c > bestC || (c == bestC && depValue(dict, v) < depValue(dict, best)) {
				best, bestC = v, c
			}
		}
		g.want[k] = best
		weight += len(group)
		support += int(bestC)
	}
	zeroed32.Put(scratch)
	maj := FDMajority{Groups: len(g.ids), Want: g.want}
	if weight > 0 {
		maj.Support = float64(support) / float64(weight)
	}
	return maj
}

// Candidate returns the string-keyed FDCandidate for dependent dep.
func (g *FDGroups) Candidate(dep int) FDCandidate {
	maj := g.Majority(dep)
	cand := FDCandidate{Det: g.det, Dep: dep, Support: maj.Support, Mapping: make(map[string]string, maj.Groups)}
	for k, id := range g.ids {
		cand.Mapping[g.d.DictValue(g.det, uint32(id))] = g.DepValue(dep, maj.Want[k])
	}
	return cand
}
