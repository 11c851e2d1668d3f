package llm

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/criteria"
	"repro/internal/knowledge"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/text"
)

// ShapeOf returns the run-length-free L2 character-class sequence of a
// value ("12:30 pm" -> "DSDWL"). Shapes are coarser than L3 patterns and
// are what the guideline-driven labeler uses for pattern-violation checks:
// free-text attributes have many L3 patterns but few shapes.
func ShapeOf(v string) string {
	p := text.Generalize(v, text.L2)
	var b strings.Builder
	for i := 0; i < len(p); i++ {
		if p[i] == '[' {
			for i < len(p) && p[i] != ']' {
				i++
			}
			continue
		}
		b.WriteByte(p[i])
	}
	return b.String()
}

// DistributionAnalysis simulates the first guideline step of Fig. 5: the
// model is prompted with sampled example tuples and asked for analysis
// functions; the functions are then executed over the whole dataset. Here
// the induced "functions" are the fixed analysis battery of
// stats.ProfileAttribute, and the returned profile is their output. Tokens
// are charged for the prompt (task + examples) and for the function code +
// executed report, mirroring what a real deployment pays.
func (c *Client) DistributionAnalysis(d *table.Dataset, j int, exampleRows []int) *stats.AttributeProfile {
	prompt := fmt.Sprintf(
		"Based on the column '%s' with examples:\n%sPlease generate Python functions to analyze the data distribution from various perspectives.",
		d.Attrs[j], d.SerializeRows(exampleRows))
	prof := stats.ProfileAttribute(d, j)
	completion := analysisFunctionStub(d.Attrs[j]) + prof.Report()
	c.charge(prompt, completion)
	return prof
}

func analysisFunctionStub(attr string) string {
	return fmt.Sprintf(`def distr_analysis_missing(dirty_csv, attr_name="%[1]s"): ...
def distr_analysis_patterns(dirty_csv, attr_name="%[1]s"): ...
def distr_analysis_values(dirty_csv, attr_name="%[1]s"): ...
def distr_analysis_numeric(dirty_csv, attr_name="%[1]s"): ...
`, attr)
}

// GenerateGuideline simulates the second guideline step: given the
// distribution-analysis report, representative examples, and the common
// error descriptions, emit the per-attribute detection guideline. All
// checks are derived from the analysis results and the correlated
// attributes — never from ground truth.
func (c *Client) GenerateGuideline(d *table.Dataset, j int, corr []int, prof *stats.AttributeProfile, exampleRows []int) *Guideline {
	attr := d.Attrs[j]
	prompt := fmt.Sprintf(
		"You are a top data scientist in data cleaning. Generate a guideline for identifying errors in the '%s' attribute of the '%s' table.\nData distribution analysis:\n%s\nExamples with correlated attribute values:\n%s\nError types: missing values, typos, pattern violations, outliers, rule violations.",
		attr, d.Name, prof.Report(), d.SerializeRows(exampleRows))

	g := &Guideline{
		Attr:        attr,
		Explanation: fmt.Sprintf("Attribute %q of table %q: %d records, %d distinct values.", attr, d.Name, prof.Total, prof.Distinct),
	}
	col := d.Column(j)

	// Missing values.
	g.MissingRate = float64(prof.Missing) / float64(max(prof.Total, 1))
	g.MissingExpected = g.MissingRate > 0.5

	// Pattern violations via shapes.
	shapeCounts := map[string]int{}
	nonNull := 0
	for _, v := range col {
		if text.IsNullLike(v) {
			continue
		}
		nonNull++
		shapeCounts[ShapeOf(v)]++
	}
	g.DominantShapes = map[string]bool{}
	type sc struct {
		s string
		c int
	}
	scs := make([]sc, 0, len(shapeCounts))
	for s, cnt := range shapeCounts {
		scs = append(scs, sc{s, cnt})
	}
	sort.Slice(scs, func(a, b int) bool {
		if scs[a].c != scs[b].c {
			return scs[a].c > scs[b].c
		}
		return scs[a].s < scs[b].s
	})
	covered := 0
	for _, e := range scs {
		if nonNull > 0 && float64(covered)/float64(nonNull) >= 0.92 {
			break
		}
		g.DominantShapes[e.s] = true
		covered += e.c
	}
	g.ShapeStrict = len(g.DominantShapes) <= 6 && nonNull > 0 &&
		float64(covered)/float64(nonNull) >= 0.92 && len(g.DominantShapes) < len(shapeCounts)

	// Outliers (numeric fences, Tukey k=3).
	nonNullVals := make([]string, 0, nonNull)
	for _, v := range col {
		if !text.IsNullLike(v) {
			nonNullVals = append(nonNullVals, v)
		}
	}
	if text.IsNumericColumn(nonNullVals, 0.9) {
		nums := stats.NumericColumn(nonNullVals)
		q1, q3 := stats.Quantile(nums, 0.25), stats.Quantile(nums, 0.75)
		iqr := q3 - q1
		if iqr == 0 {
			iqr = (q3+q1)*0.25 + 1
		}
		g.Numeric = true
		g.Lo, g.Hi = q1-3*iqr, q3+3*iqr
	}

	// Typos + domain for categorical attributes.
	valCounts := map[string]int{}
	for _, v := range nonNullVals {
		valCounts[strings.ToLower(v)]++
	}
	if nonNull > 0 && float64(len(valCounts))/float64(nonNull) <= 0.2 {
		g.DomainStrict = true
		g.Domain = map[string]bool{}
		g.RareShare = map[string]float64{}
		minFreq := max(2, nonNull/500)
		for v, cnt := range valCounts {
			g.RareShare[v] = float64(cnt) / float64(nonNull)
			if cnt >= minFreq {
				g.Domain[v] = true
				g.TypoTargets = append(g.TypoTargets, v)
			}
		}
		sort.Strings(g.TypoTargets)
		if len(g.TypoTargets) > 300 {
			g.TypoTargets = g.TypoTargets[:300]
		}
	}

	// Free-text columns get a token vocabulary for word-level typo
	// reasoning instead of a value domain.
	if !g.DomainStrict {
		tokCounts := map[string]int{}
		for _, v := range nonNullVals {
			for _, tok := range text.Tokenize(v) {
				tokCounts[tok]++
			}
		}
		minTok := max(3, nonNull/200)
		g.TokenVocab = map[string]bool{}
		for tok, cnt := range tokCounts {
			if cnt >= minTok && len(tok) >= 4 {
				g.TokenVocab[tok] = true
			}
		}
		if len(g.TokenVocab) > 600 {
			g.TokenVocab = nil // vocabulary too diffuse to reason over
		}
	}

	// Rule violations from correlated attributes, subject to guideline
	// skill: weaker models miss dependency reasoning first.
	rng := c.rng("guideline/" + d.Name + "/" + attr)
	for _, q := range corr {
		if q == j {
			continue
		}
		fd := stats.FindFD(d, q, j)
		if fd.Support >= 0.9 && len(fd.Mapping) >= 2 {
			if rng.Float64() > c.profile.GuidelineSkill {
				continue // model failed to reason about this dependency
			}
			g.FDs = append(g.FDs, FDRule{DetAttr: d.Attrs[q], Support: fd.Support, Mapping: fd.Mapping})
		}
	}
	if c.profile.GuidelineSkill < 0.8 && rng.Float64() > c.profile.GuidelineSkill {
		g.ShapeStrict = false // weak model writes vague pattern guidance
	}

	g.Text = g.Render()
	c.charge(prompt, g.Text)
	return g
}

// labelBatch simulates holistic in-context labeling of one batch of cells
// of attribute j (Section III-C): the prompt carries the guideline and the
// serialized batch (with correlated attribute values); the completion is
// one error/clean verdict per cell. When g is nil the model labels without
// guidelines (the "w/o Guid." ablation): it can then only use the batch
// itself as context, which reproduces the paper's observed degradation on
// datasets with context-dependent errors.
//
// A non-nil memo replays the guideline judgement per value-ID tuple (see
// JudgeMemo). Token charging and the per-cell seeded noise stream are the
// same with or without it; only the pure judgement comes from the cache,
// so the verdicts are bit-identical. A nil memo judges every cell afresh.
func (c *Client) labelBatch(d *table.Dataset, j int, rows []int, g *Guideline, memo *JudgeMemo) []bool {
	var gtext string
	if g != nil {
		gtext = g.Text
	} else {
		gtext = "(no guideline)"
	}
	// The task+guideline prefix is shared across an attribute's batches
	// and billed through the prompt cache; the serialized batch is the
	// per-call suffix.
	prefix := fmt.Sprintf("Task: label each value of attribute '%s' as erroneous or clean.\nGuideline:\n%s\n",
		d.Attrs[j], gtext)
	suffix := "Batch:\n" + d.SerializeRows(rows)

	out := make([]bool, len(rows))
	var batchCounts map[string]int
	var batchNums []float64
	if g == nil {
		batchCounts = map[string]int{}
		for _, r := range rows {
			v := d.Value(r, j)
			batchCounts[strings.ToLower(v)]++
			if f, ok := text.ParseFloat(v); ok {
				batchNums = append(batchNums, f)
			}
		}
	}
	for i, r := range rows {
		v := d.Value(r, j)
		var isErr bool
		if g != nil {
			if memo != nil {
				isErr = memo.judge(c, g, r)
			} else {
				isErr = c.judgeWithGuideline(g, d, r, v)
			}
		} else {
			isErr = judgeBatchOnly(v, batchCounts, batchNums, len(rows))
		}
		// Seeded labeling noise per cell.
		rng := c.rng(fmt.Sprintf("label/%s/%d/%d", d.Name, j, r))
		if isErr {
			if rng.Float64() < c.profile.LabelFlipError {
				isErr = false
			}
		} else if rng.Float64() < c.profile.LabelFlipClean {
			isErr = true
		}
		out[i] = isErr
	}
	completion := verdicts(out)
	c.chargeCached(prefix, suffix, completion)
	return out
}

// judgeWithGuideline applies the guideline's grounded checks to one cell —
// the paper's "LLM examines each value by comparing it against the
// guidelines".
func (c *Client) judgeWithGuideline(g *Guideline, d *table.Dataset, row int, v string) bool {
	if text.IsNullLike(v) {
		return !g.MissingExpected
	}
	if g.ShapeStrict && !g.DominantShapes[ShapeOf(v)] {
		return true
	}
	if g.Numeric {
		f, ok := text.ParseFloat(v)
		if !ok {
			return true // non-numeric intruder in numeric attribute
		}
		if f < g.Lo || f > g.Hi {
			return true
		}
	}
	if g.DomainStrict {
		lv := strings.ToLower(v)
		if !g.Domain[lv] {
			for _, tgt := range g.TypoTargets {
				dist := text.Levenshtein(lv, tgt)
				if dist > 0 && dist <= 2 {
					return true // near-miss of a frequent value: typo
				}
			}
			if g.RareShare[lv] < 0.005 {
				return true // rare unknown value in a categorical domain
			}
		}
	}
	if len(g.TokenVocab) > 0 {
		for _, tok := range text.Tokenize(v) {
			if len(tok) < 5 || g.TokenVocab[tok] {
				continue
			}
			for known := range g.TokenVocab {
				if abs(len(known)-len(tok)) <= 1 {
					if dd := text.Levenshtein(tok, known); dd > 0 && dd <= 1 {
						return true // misspelled word inside a longer value
					}
				}
			}
		}
	}
	for _, fd := range g.FDs {
		det := d.Value(row, d.ColIndex(fd.DetAttr))
		if want, ok := fd.Mapping[det]; ok && v != want {
			return true
		}
	}
	return false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// judgeBatchOnly is the no-guideline labeler: null checks plus what can be
// inferred from a 20-tuple batch alone.
func judgeBatchOnly(v string, counts map[string]int, nums []float64, batchSize int) bool {
	if text.IsNullLike(v) {
		return true
	}
	lv := strings.ToLower(v)
	// A batch singleton that is a near-miss of a more frequent batch value
	// looks like a typo even without global context.
	if counts[lv] == 1 {
		for other, c := range counts {
			if c >= 2 && other != lv {
				if d := text.Levenshtein(lv, other); d > 0 && d <= 2 {
					return true
				}
			}
		}
	}
	// Crude within-batch outlier check.
	if f, ok := text.ParseFloat(v); ok && len(nums) >= max(8, batchSize/2) {
		mean, std := stats.MeanStd(nums)
		if std > 0 && (f > mean+4*std || f < mean-4*std) {
			return true
		}
	}
	return false
}

func verdicts(labels []bool) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		if l {
			b.WriteString("error")
		} else {
			b.WriteString("clean")
		}
	}
	return b.String()
}

// GenerateCriteria simulates the criteria-reasoning prompt of Section
// III-B: serialized random sample tuples in, executable error-checking
// criteria out. Weaker models drop criteria they failed to think of.
func (c *Client) GenerateCriteria(d *table.Dataset, j int, sampleRows []int, corr []int) *criteria.Set {
	prompt := fmt.Sprintf(
		"Task: derive executable error-checking criteria for attribute '%s'.\nCommon errors: missing values, typos, pattern violations, outliers, rule violations.\nSampled tuples:\n%s",
		d.Attrs[j], d.SerializeRows(sampleRows))
	set := criteria.Induce(d, j, sampleRows, corr, criteria.DefaultInduceOptions())
	if c.profile.CriteriaSkill < 1 {
		rng := c.rng("criteria/" + d.Name + "/" + d.Attrs[j])
		kept := set.Criteria[:0]
		for _, cr := range set.Criteria {
			if rng.Float64() <= c.profile.CriteriaSkill {
				kept = append(kept, cr)
			}
		}
		set.Criteria = kept
	}
	var names []string
	for _, cr := range set.Criteria {
		names = append(names, "def "+cr.Name+"(row, attr): ...")
	}
	c.charge(prompt, strings.Join(names, "\n"))
	return set
}

// RefineCriteria simulates the contrastive in-context prompting of
// Algorithm 1 (Lines 4-7): clean and erroneous value groups in, enhanced
// criteria out.
func (c *Client) RefineCriteria(set *criteria.Set, cleanVals, errVals []string) *criteria.Set {
	prompt := fmt.Sprintf(
		"Refine error-checking criteria for attribute '%s'.\nClean examples: %s\nErroneous examples: %s",
		set.Attr, strings.Join(cleanVals, " | "), strings.Join(errVals, " | "))
	refined := criteria.Refine(set, cleanVals, errVals)
	var names []string
	for _, cr := range refined.Criteria {
		names = append(names, cr.Name)
	}
	c.charge(prompt, strings.Join(names, "\n"))
	return refined
}

// AugmentErrors simulates LLM-based semantic error augmentation (Algorithm
// 1, Line 25): given clean examples and observed error descriptions,
// produce n realistic new error values for the attribute. The generator
// mutates clean values with the same five error mechanisms the taxonomy
// describes, so augmented errors stay semantically plausible.
func (c *Client) AugmentErrors(attr string, cleanVals, errVals []string, n int) []string {
	if len(cleanVals) == 0 || n <= 0 {
		return nil
	}
	prompt := fmt.Sprintf(
		"Task: generate %d realistic erroneous variants for attribute '%s'.\nExample values: %s\nError examples: %s",
		n, attr, strings.Join(sliceCap(cleanVals, 20), " | "), strings.Join(sliceCap(errVals, 20), " | "))
	rng := c.rng("augment/" + attr)
	out := make([]string, 0, n)
	for len(out) < n {
		src := cleanVals[rng.Intn(len(cleanVals))]
		v := MutateValue(rng, src)
		if v != src {
			out = append(out, v)
		}
	}
	c.charge(prompt, strings.Join(out, " | "))
	return out
}

// MutateValue applies one random error mechanism to a clean value: typo,
// missing placeholder, pattern mangling, or numeric outlier scaling.
// Exported because the error-generation substrate shares it.
func MutateValue(rng *rand.Rand, src string) string {
	switch rng.Intn(4) {
	case 0: // typo
		return Typo(rng, src)
	case 1: // missing
		placeholders := []string{"", "NULL", "N/A", "-"}
		return placeholders[rng.Intn(len(placeholders))]
	case 2: // pattern mangling
		return MangleFormat(rng, src)
	default: // outlier (numeric) or charset noise (textual)
		if f, ok := text.ParseFloat(src); ok {
			scale := []float64{100, 0.01, -1, 1000}[rng.Intn(4)]
			return trimFloat(f * scale)
		}
		return Typo(rng, src)
	}
}

// Typo injects a keyboard-plausible edit (substitution, deletion,
// transposition, or insertion) into a non-empty string.
func Typo(rng *rand.Rand, s string) string {
	rs := []rune(s)
	if len(rs) == 0 {
		return "x"
	}
	i := rng.Intn(len(rs))
	switch rng.Intn(4) {
	case 0: // substitution with a nearby letter
		rs[i] = nearbyRune(rng, rs[i])
	case 1: // deletion
		rs = append(rs[:i], rs[i+1:]...)
	case 2: // transposition
		if len(rs) >= 2 {
			k := i
			if k == len(rs)-1 {
				k--
			}
			rs[k], rs[k+1] = rs[k+1], rs[k]
		} else {
			rs[i] = nearbyRune(rng, rs[i])
		}
	default: // insertion
		rs = append(rs[:i], append([]rune{nearbyRune(rng, rs[i])}, rs[i:]...)...)
	}
	return string(rs)
}

var keyboardRows = []string{"qwertyuiop", "asdfghjkl", "zxcvbnm", "1234567890"}

func nearbyRune(rng *rand.Rand, r rune) rune {
	lower := r
	if r >= 'A' && r <= 'Z' {
		lower = r + 32
	}
	for _, row := range keyboardRows {
		if idx := strings.IndexRune(row, lower); idx >= 0 {
			var cand []byte
			if idx > 0 {
				cand = append(cand, row[idx-1])
			}
			if idx < len(row)-1 {
				cand = append(cand, row[idx+1])
			}
			ch := rune(cand[rng.Intn(len(cand))])
			if r >= 'A' && r <= 'Z' {
				ch -= 32
			}
			return ch
		}
	}
	return rune('a' + rng.Intn(26))
}

// MangleFormat produces a pattern violation: case flips, symbol injection,
// or whitespace removal, changing the value's shape.
func MangleFormat(rng *rand.Rand, s string) string {
	switch rng.Intn(3) {
	case 0:
		if strings.Contains(s, " ") {
			return strings.ReplaceAll(s, " ", "")
		}
		return strings.ToUpper(s)
	case 1:
		return s + "!!"
	default:
		if s == "" {
			return "??"
		}
		return strings.ToUpper(s[:1]) + "#" + s[1:]
	}
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// DetectTupleErrors simulates the FM_ED baseline's per-tuple prompt ("Is
// there an error in this tuple?"): the model sees one serialized tuple and
// its own pretrained knowledge (kb), and returns one verdict per cell.
// Without cross-tuple context it can catch missing values and
// known-entity typos but not pattern violations, outliers, or rule
// violations — Table I's characterization.
func (c *Client) DetectTupleErrors(attrs []string, row []string, kb *knowledge.Base) []bool {
	var sb strings.Builder
	for i, a := range attrs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a)
		sb.WriteString(": ")
		sb.WriteString(row[i])
	}
	prompt := "Is there an error in this tuple? Answer per attribute.\n" + sb.String()
	out := make([]bool, len(attrs))
	for i, a := range attrs {
		v := row[i]
		switch {
		case text.IsNullLike(v):
			out[i] = true
		case kb != nil && kb.HasType(a) && !kb.Contains(a, v):
			// The model "knows" this attribute's entity universe and the
			// value is not in it.
			out[i] = true
		case looksMalformed(v):
			// Glaring surface junk ("Chicago!!", "B#oston") is visible to
			// a pretrained model even without cross-tuple context.
			out[i] = true
		}
		rng := c.rng(fmt.Sprintf("fmed/%s/%s/%s", a, v, sb.String()[:min(24, sb.Len())]))
		if out[i] {
			if rng.Float64() < c.profile.LabelFlipError {
				out[i] = false
			}
		} else if rng.Float64() < c.profile.LabelFlipClean {
			out[i] = true
		}
	}
	c.charge(prompt, verdicts(out))
	return out
}

// looksMalformed reports surface-level junk any pretrained model notices
// in isolation: doubled terminal exclamations or a hash spliced between
// letters. Deliberately narrow — per-tuple detection must not see
// distributional anomalies (that is the whole point of Table I).
func looksMalformed(v string) bool {
	if strings.HasSuffix(v, "!!") {
		return true
	}
	for i := 1; i+1 < len(v); i++ {
		if v[i] == '#' && isAlnum(v[i-1]) && isAlnum(v[i+1]) {
			return true
		}
	}
	return false
}

func isAlnum(b byte) bool {
	return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

func sliceCap(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}
