// Package repair turns ZeroED detections into repair suggestions — the
// downstream half of the data-cleaning loop the paper's introduction
// motivates (and the subject of the authors' companion work on automatic
// data repair). Given a dirty dataset and a predicted error mask, the
// repairer proposes a replacement value per flagged cell using the same
// evidence the detector reasons over: functional dependencies mined from
// the unflagged portion of the data, frequent-value domains for typo
// correction, and column medians for numeric outliers. Cells without a
// confident fix are left untouched (repair must not invent data).
//
// Evidence mining and fix lookup run on the dataset's value-ID path: column
// statistics are computed once per distinct dictionary value (weighted by
// occurrence count), dependency rules are indexed by determinant value ID,
// and non-FD fixes are memoized per (column, value ID) — so repairing a
// table costs O(rows) ID scans plus O(distinct values) string work, like
// the detector's own featurization. Dependency mining over the m(m−1)
// column pairs groups rows by each determinant's value IDs once, O(rows)
// per determinant, then counts each dependent in one dense array, O(rows
// in groups of two or more) per pair; only accepted rules turn value IDs
// into strings. Proposals are deterministic: the same dataset and mask
// always produce the same fixes in the same order.
package repair

import (
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/text"
)

// Strategy names the evidence used for one repair.
type Strategy string

// Repair strategies, in the priority order Apply tries them.
const (
	StrategyFD     Strategy = "fd"     // dependency-implied value
	StrategyTypo   Strategy = "typo"   // nearest frequent value
	StrategyMedian Strategy = "median" // numeric column median
	StrategyMode   Strategy = "mode"   // dominant categorical value
	StrategyNone   Strategy = "none"   // no confident fix
)

// Fix is one proposed repair.
type Fix struct {
	Row, Col int
	Old, New string
	Strategy Strategy
}

// Config tunes the repairer.
type Config struct {
	// FDMinSupport is the minimum support for a mined dependency to drive
	// repairs (default 0.9).
	FDMinSupport float64
	// TypoMaxDist bounds edit distance for typo correction (default 2).
	TypoMaxDist int
	// MinFrequent is the minimum occurrences for a repair-target value
	// (default 3).
	MinFrequent int
	// ModeMinShare is the minimum share of the dominant value for
	// mode-based missing-value repair (default 0.9).
	ModeMinShare float64
}

func (c Config) withDefaults() Config {
	if c.FDMinSupport <= 0 {
		c.FDMinSupport = 0.9
	}
	if c.TypoMaxDist <= 0 {
		c.TypoMaxDist = 2
	}
	if c.MinFrequent <= 0 {
		c.MinFrequent = 3
	}
	if c.ModeMinShare <= 0 {
		c.ModeMinShare = 0.9
	}
	return c
}

// Repairer proposes fixes for flagged cells.
type Repairer struct {
	cfg Config
}

// New creates a repairer; zero config fields assume defaults.
func New(cfg Config) *Repairer { return &Repairer{cfg: cfg.withDefaults()} }

// columnEvidence is the per-attribute repair knowledge mined from cells
// the detector did NOT flag (trusting detected-clean data only).
type columnEvidence struct {
	frequent   []frequentValue // by descending count
	distinct   int             // distinct non-null clean values
	numeric    bool
	median     float64
	mode       string
	modeShare  float64
	totalClean int
}

// frequentValue is one typo-repair target, lowercased and rune-counted
// once per request rather than once per flagged value.
type frequentValue struct {
	val, lower string
	runes      int // utf8.RuneCountInString(lower)
}

// memoFix caches the non-FD fix for one distinct flagged value of one
// column: typo, median, and mode repairs depend only on the old value and
// the column evidence, so every later cell holding the same value ID reuses
// the lookup.
type memoFix struct {
	val   string
	strat Strategy
}

// Propose returns repair suggestions for every flagged cell it can fix
// confidently. It does not modify the dataset.
func (r *Repairer) Propose(d *table.Dataset, mask [][]bool) []Fix {
	m := d.NumCols()
	ev := make([]columnEvidence, m)
	for j := 0; j < m; j++ {
		ev[j] = mineColumn(d, mask, j, r.cfg)
	}

	// Mine dependencies from unflagged cells only: the grouping skips
	// flagged determinant cells and counts flagged dependent cells as "",
	// which never yields a rule.
	var fds []fdRule
	for det := 0; det < m; det++ {
		if ev[det].totalClean == 0 || ev[det].distinct > d.NumRows()/2 {
			continue // near-key determinants repair nothing reliably
		}
		groups := stats.GroupFD(d, det, mask)
		for dep := 0; dep < m; dep++ {
			if det == dep {
				continue
			}
			if maj := groups.Majority(dep); maj.Support >= r.cfg.FDMinSupport && maj.Groups >= 2 {
				fds = append(fds, newFDRule(groups, det, dep, maj))
			}
		}
	}

	memo := make([]map[uint32]memoFix, m)
	var fixes []Fix
	for i := 0; i < d.NumRows(); i++ {
		for j := 0; j < m; j++ {
			if !mask[i][j] {
				continue
			}
			old := d.Value(i, j)
			if fix, strat := r.fixCell(d, i, j, old, &ev[j], fds, mask, memo); strat != StrategyNone && fix != old {
				fixes = append(fixes, Fix{Row: i, Col: j, Old: old, New: fix, Strategy: strat})
			}
		}
	}
	return fixes
}

// fdRule is one mined dependency det -> dep: want[k] replaces dep on the
// rows of determinant group k when has[k] marks it non-empty.
type fdRule struct {
	det, dep int
	groups   *stats.FDGroups
	want     []string
	has      []bool
}

func newFDRule(groups *stats.FDGroups, det, dep int, maj stats.FDMajority) fdRule {
	rule := fdRule{det: det, dep: dep, groups: groups, want: make([]string, maj.Groups), has: make([]bool, maj.Groups)}
	for k, w := range maj.Want {
		if v := groups.DepValue(dep, w); v != "" {
			rule.want[k], rule.has[k] = v, true
		}
	}
	return rule
}

// fixCell tries the repair strategies in priority order.
func (r *Repairer) fixCell(d *table.Dataset, i, j int, old string, ev *columnEvidence, fds []fdRule, mask [][]bool, memo []map[uint32]memoFix) (string, Strategy) {
	// 1. Dependency-implied value: the strongest evidence — an unflagged
	// determinant value whose group has a dominant dependent value. This is
	// the one per-cell lookup (the determinant varies by row); it costs one
	// row-to-group index per rule.
	for _, fd := range fds {
		if fd.dep != j || mask[i][fd.det] {
			continue
		}
		if k := fd.groups.Group(i); k >= 0 && fd.has[k] {
			return fd.want[k], StrategyFD
		}
	}
	// The remaining strategies depend only on (column, old value): resolve
	// once per distinct flagged value ID and replay from the memo.
	oldID := d.ValueID(i, j)
	if f, ok := memo[j][oldID]; ok {
		return f.val, f.strat
	}
	val, strat := r.fixValue(old, ev)
	if memo[j] == nil {
		memo[j] = make(map[uint32]memoFix)
	}
	memo[j][oldID] = memoFix{val: val, strat: strat}
	return val, strat
}

// fixValue resolves the value-level strategies for one distinct old value.
func (r *Repairer) fixValue(old string, ev *columnEvidence) (string, Strategy) {
	// 2. Typo correction: nearest frequent value within the edit bound.
	if !text.IsNullLike(old) {
		bestVal, bestDist := "", r.cfg.TypoMaxDist+1
		lo := strings.ToLower(old)
		runes := utf8.RuneCountInString(lo)
		for _, fv := range ev.frequent {
			// The rune-count gap bounds the edit distance from below, so
			// a value that cannot beat bestDist is skipped unmeasured.
			if gap := fv.runes - runes; gap >= bestDist || -gap >= bestDist {
				continue
			}
			dist := text.Levenshtein(lo, fv.lower)
			if dist > 0 && dist < bestDist {
				bestVal, bestDist = fv.val, dist
			}
		}
		if bestVal != "" {
			return bestVal, StrategyTypo
		}
	}
	// 3. Numeric outliers: column median.
	if ev.numeric && !text.IsNullLike(old) {
		if _, ok := text.ParseFloat(old); ok {
			return formatFloat(ev.median), StrategyMedian
		}
	}
	// 4. Missing values in near-constant columns: the dominant value.
	if text.IsNullLike(old) && ev.modeShare >= r.cfg.ModeMinShare && ev.mode != "" {
		return ev.mode, StrategyMode
	}
	return "", StrategyNone
}

// Apply copies the dataset and applies all proposed fixes, returning the
// repaired copy and the fixes.
func (r *Repairer) Apply(d *table.Dataset, mask [][]bool) (*table.Dataset, []Fix) {
	fixes := r.Propose(d, mask)
	out := d.Clone()
	for _, f := range fixes {
		out.SetValue(f.Row, f.Col, f.New)
	}
	return out, fixes
}

// mineColumn builds repair evidence for one attribute from unflagged cells.
// It counts the column's unflagged value IDs once (stats.PresentIDs), then
// does all string work — null detection, numeric parsing, frequency
// ranking — per distinct value present, in order of first appearance,
// weighted by its clean occurrence count. Only the IDs present are
// visited, so a Derive'd dataset costs O(rows) however large its
// dictionary is, and it visits the values in the order a fresh load of the
// same rows does.
func mineColumn(d *table.Dataset, mask [][]bool, j int, cfg Config) columnEvidence {
	var ev columnEvidence
	ids, counts := stats.PresentIDs(d, j, mask)
	type idCount struct {
		id uint32
		c  int
	}
	numericTotal, modeCount := 0, 0
	var nums []float64
	var frequent []idCount
	for k, id := range ids {
		c := int(counts[k])
		v := d.DictValue(j, uint32(id))
		if text.IsNullLike(v) {
			continue
		}
		ev.distinct++ // dictionary values are distinct; no accumulation
		ev.totalClean += c
		if c >= cfg.MinFrequent {
			frequent = append(frequent, idCount{uint32(id), c})
		}
		if c > modeCount || (c == modeCount && v < ev.mode) {
			ev.mode, modeCount = v, c
		}
		if f, ok := text.ParseFloat(v); ok {
			numericTotal += c
			for range c {
				nums = append(nums, f)
			}
		}
	}
	if ev.totalClean == 0 {
		return ev
	}
	sort.Slice(frequent, func(a, b int) bool {
		if frequent[a].c != frequent[b].c {
			return frequent[a].c > frequent[b].c
		}
		return d.DictValue(j, frequent[a].id) < d.DictValue(j, frequent[b].id)
	})
	if len(frequent) > 200 {
		frequent = frequent[:200]
	}
	ev.frequent = make([]frequentValue, len(frequent))
	for k, f := range frequent {
		v := d.DictValue(j, f.id)
		lower := strings.ToLower(v)
		ev.frequent[k] = frequentValue{val: v, lower: lower, runes: utf8.RuneCountInString(lower)}
	}
	ev.modeShare = float64(modeCount) / float64(ev.totalClean)
	// Numeric when at least 90% of the clean non-null occurrences parse —
	// the same threshold text.IsNumericColumn applies to raw value slices.
	if float64(numericTotal)/float64(ev.totalClean) >= 0.9 {
		ev.numeric = true
		ev.median = stats.Quantile(nums, 0.5)
	}
	return ev
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
