package baselines

import (
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/text"
)

// Nadeef reproduces the NADEEF rule-based cleaner: it takes user-supplied
// integrity constraints — functional dependencies and per-attribute format
// patterns — and flags cells participating in violations. Following the
// paper's setup, constraints come from "existing public code": here the
// benchmark's declared FD pairs and dominant-shape patterns mined once from
// the data (standing in for the hand-written regexes of the real rule
// files). NADEEF handles missing values and rule violations well but not
// outliers (Table I).
type Nadeef struct {
	// FDPairs are (determinant, dependent) attribute index pairs.
	FDPairs [][2]int
	// PatternAttrs restricts pattern rules to the listed attributes; nil
	// derives pattern rules for every attribute with a sufficiently
	// dominant shape.
	PatternAttrs []int
	// PatternCoverage is the minimum share a shape must hold for a pattern
	// rule to exist (default 0.95).
	PatternCoverage float64
}

// NewNadeef builds NADEEF with the benchmark's constraint set.
func NewNadeef(fdPairs [][2]int) *Nadeef {
	return &Nadeef{FDPairs: fdPairs, PatternCoverage: 0.95}
}

// Name implements Method.
func (b *Nadeef) Name() string { return "Nadeef" }

// Detect implements Method.
func (b *Nadeef) Detect(d *table.Dataset) ([][]bool, error) {
	pred := newMask(d)

	// Manual rule sets only cover the attributes someone wrote rules for.
	// Following the paper's setup (constraints imported from the public
	// rule files), coverage is the set of FD-involved attributes plus any
	// explicitly listed pattern attributes — not the whole schema.
	covered := map[int]bool{}
	for _, p := range b.FDPairs {
		covered[p[0]] = true
		covered[p[1]] = true
	}
	for _, j := range b.PatternAttrs {
		covered[j] = true
	}
	if len(covered) == 0 {
		// No constraints at all: rule-less NADEEF detects nothing.
		return pred, nil
	}

	// Not-null rules on covered attributes.
	for j := range covered {
		nullish := stats.NullishByID(d, j)
		for i, id := range d.ColumnIDs(j) {
			if nullish[id] {
				pred[i][j] = true
			}
		}
	}

	// FD rules: within each determinant group, dependent values deviating
	// from the group majority are violations. The majority is mined and
	// compared by value ID.
	for _, p := range b.FDPairs {
		det, dep := p[0], p[1]
		groups := stats.GroupFD(d, det, nil)
		wantID := groups.Majority(dep).Want
		depNullish := stats.NullishByID(d, dep)
		for i, id := range d.ColumnIDs(dep) {
			k := groups.Group(i)
			if k >= 0 && uint32(wantID[k]) != id && !depNullish[id] {
				// NADEEF marks every cell participating in the violation;
				// it cannot localize which side is wrong, which is exactly
				// why the paper finds rule-based precision limited.
				pred[i][dep] = true
				pred[i][det] = true
			}
		}
	}

	// Pattern rules: covered attributes with one overwhelmingly dominant
	// shape get a format regex; deviants are violations. Shapes are
	// computed once per unique value.
	var attrs []int
	for j := 0; j < d.NumCols(); j++ {
		if covered[j] {
			attrs = append(attrs, j)
		}
	}
	for _, j := range attrs {
		dict := d.Dict(j)
		counts := stats.CountsByID(d, j)
		nullish := stats.NullishByID(d, j)
		shapeOfID := make([]string, len(dict))
		shapeCount := map[string]int{}
		nonNull := 0
		for id, v := range dict {
			if nullish[id] {
				continue
			}
			shapeOfID[id] = shapeOf(v)
			if counts[id] > 0 {
				nonNull += counts[id]
				shapeCount[shapeOfID[id]] += counts[id]
			}
		}
		if nonNull == 0 {
			continue
		}
		bestShape, bestC := "", 0
		for s, c := range shapeCount {
			if c > bestC || (c == bestC && s < bestShape) {
				bestShape, bestC = s, c
			}
		}
		if float64(bestC)/float64(nonNull) < b.PatternCoverage {
			continue // no credible manual pattern for this attribute
		}
		for i, id := range d.ColumnIDs(j) {
			if !nullish[id] && shapeOfID[id] != bestShape {
				pred[i][j] = true
			}
		}
	}
	return pred, nil
}

// shapeOf mirrors llm.ShapeOf without importing the llm package: the
// run-length-free L2 class sequence.
func shapeOf(v string) string {
	p := text.Generalize(v, text.L2)
	out := make([]byte, 0, len(p))
	for i := 0; i < len(p); i++ {
		if p[i] == '[' {
			for i < len(p) && p[i] != ']' {
				i++
			}
			continue
		}
		out = append(out, p[i])
	}
	return string(out)
}
