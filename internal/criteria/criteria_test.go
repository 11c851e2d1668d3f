package criteria

import (
	"strings"
	"testing"

	"repro/internal/table"
)

// data builds a dataset from a comma-separated header and rows.
func data(header string, rows ...string) *table.Dataset {
	d := table.New("t", strings.Split(header, ","))
	for _, r := range rows {
		d.MustAppendRow(strings.Split(r, ","))
	}
	return d
}

// eval runs c against the single value v of attribute "x".
func eval(c *Criterion, v string) bool { return c.EvalAt(data("x", v), 0, 0) }

func TestNotNull(t *testing.T) {
	c := &Criterion{Kind: KindNotNull, Attr: "x", Name: "nn"}
	if eval(c, "") {
		t.Error("empty must fail not_null")
	}
	if eval(c, "NULL") {
		t.Error("NULL placeholder must fail not_null")
	}
	if !eval(c, "abc") {
		t.Error("non-null must pass")
	}
}

func TestNullPassesOtherKinds(t *testing.T) {
	c := &Criterion{Kind: KindRange, Attr: "x", Lo: 0, Hi: 10}
	if !eval(c, "") {
		t.Error("null-like value must pass non-null-kind criteria")
	}
}

func TestPattern(t *testing.T) {
	c := &Criterion{Kind: KindPattern, Attr: "x", Patterns: map[string]bool{"D[5]": true}}
	if !eval(c, "80000") {
		t.Error("5-digit value must pass D[5]")
	}
	if eval(c, "80k") {
		t.Error("wrong pattern must fail")
	}
}

func TestDomain(t *testing.T) {
	c := &Criterion{Kind: KindDomain, Attr: "x", Domain: map[string]bool{"phd": true, "master": true}}
	if !eval(c, "PhD") {
		t.Error("domain check is case-insensitive")
	}
	if eval(c, "Doctorate") {
		t.Error("out-of-domain must fail")
	}
}

func TestRange(t *testing.T) {
	c := &Criterion{Kind: KindRange, Attr: "x", Lo: 1, Hi: 12}
	if !eval(c, "7") {
		t.Error("in-range must pass")
	}
	if eval(c, "25") {
		t.Error("out-of-range must fail")
	}
	if eval(c, "abc") {
		t.Error("non-numeric must fail range")
	}
}

func TestFD(t *testing.T) {
	c := &Criterion{Kind: KindFD, Attr: "Capital", DetAttr: "Country",
		Mapping: map[string]string{"France": "Paris"}}
	if !c.EvalAt(data("Country,Capital", "France,Paris"), 0, 1) {
		t.Error("consistent FD must pass")
	}
	if c.EvalAt(data("Country,Capital", "France,Lyon"), 0, 1) {
		t.Error("violating FD must fail")
	}
	if !c.EvalAt(data("Country,Capital", "Japan,Tokyo"), 0, 1) {
		t.Error("unseen determinant must pass (no evidence)")
	}
}

func TestCharset(t *testing.T) {
	c := &Criterion{Kind: KindCharset, Attr: "x", AllowedClasses: map[byte]bool{'D': true}}
	if !eval(c, "12345") {
		t.Error("digits must pass digit charset")
	}
	if eval(c, "12a45") {
		t.Error("letter must fail digit charset")
	}
}

func TestLength(t *testing.T) {
	c := &Criterion{Kind: KindLength, Attr: "x", MinLen: 2, MaxLen: 4}
	if !eval(c, "abc") || eval(c, "a") || eval(c, "abcde") {
		t.Error("length bounds not enforced")
	}
}

func TestTypoDomain(t *testing.T) {
	c := &Criterion{Kind: KindTypoDomain, Attr: "x",
		TypoTargets: []string{"Bachelor", "Master"}, MaxDist: 2}
	if !eval(c, "Bachelor") {
		t.Error("exact frequent value must pass")
	}
	if eval(c, "Bechxlor") {
		t.Error("near-miss of a frequent value must fail (likely typo)")
	}
	if !eval(c, "Doctorate") {
		t.Error("distant value must pass typo check")
	}
}

func TestValueFreq(t *testing.T) {
	c := &Criterion{Kind: KindValueFreq, Attr: "x", MinCount: 2,
		Counts: map[string]int{"a": 5, "b": 1}}
	if !eval(c, "a") || eval(c, "b") {
		t.Error("value frequency threshold not enforced")
	}
}

func TestNumericType(t *testing.T) {
	c := &Criterion{Kind: KindNumericType, Attr: "x"}
	if !eval(c, "3.14") || eval(c, "pi") {
		t.Error("numeric parse criterion wrong")
	}
}

func TestSetFeaturesAndPassRate(t *testing.T) {
	s := &Set{Attr: "x", Criteria: []*Criterion{
		{Kind: KindNotNull, Attr: "x"},
		{Kind: KindRange, Attr: "x", Lo: 0, Hi: 10},
	}}
	// Row "5" passes both criteria; row "99" passes only not-null.
	d := data("x", "5", "99")
	if got := s.PassRateAt(d, 0, 0); got != 1 {
		t.Errorf("PassRateAt(5) = %v, want 1", got)
	}
	if got := s.PassRateAt(d, 1, 0); got != 0.5 || !s.Criteria[0].EvalAt(d, 1, 0) {
		t.Errorf("PassRateAt(99) = %v, want 0.5 from the range criterion", got)
	}
	empty := &Set{Attr: "x"}
	if got := empty.PassRateAt(data("x", "z"), 0, 0); got != 1 {
		t.Errorf("empty set PassRateAt = %v, want 1", got)
	}
}

func TestAccuracyAndVerifySet(t *testing.T) {
	good := &Criterion{Kind: KindRange, Attr: "x", Lo: 0, Hi: 100, Name: "good"}
	bad := &Criterion{Kind: KindRange, Attr: "x", Lo: 0, Hi: 1, Name: "bad"}
	d := data("x", "50", "60", "70")
	rows := allRows(d)
	if got := AccuracyOnCleanAt(good, d, 0, rows); got != 1 {
		t.Errorf("good accuracy = %v, want 1", got)
	}
	if got := AccuracyOnCleanAt(bad, d, 0, rows); got != 0 {
		t.Errorf("bad accuracy = %v, want 0", got)
	}
	s := &Set{Attr: "x", Criteria: []*Criterion{good, bad}}
	v := VerifySetAt(s, d, 0, rows, 0.5)
	if len(v.Criteria) != 1 || v.Criteria[0].Name != "good" {
		t.Errorf("VerifySetAt kept %v", v.Criteria)
	}
	if got := AccuracyOnCleanAt(good, d, 0, nil); got != 1 {
		t.Errorf("empty rows accuracy = %v, want 1", got)
	}
}

func eduDataset() *table.Dataset {
	d := table.New("t", []string{"Education", "Salary"})
	for i := 0; i < 30; i++ {
		d.MustAppendRow([]string{"Bachelor", "50000"})
		d.MustAppendRow([]string{"Master", "70000"})
		d.MustAppendRow([]string{"Phd", "90000"})
	}
	return d
}

func allRows(d *table.Dataset) []int {
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func TestInduceCategorical(t *testing.T) {
	d := eduDataset()
	s := Induce(d, 0, allRows(d), []int{1}, DefaultInduceOptions())
	if len(s.Criteria) == 0 {
		t.Fatal("no criteria induced")
	}
	kinds := map[Kind]bool{}
	for _, c := range s.Criteria {
		kinds[c.Kind] = true
	}
	if !kinds[KindDomain] {
		t.Error("categorical attribute should induce a domain criterion")
	}
	if !kinds[KindTypoDomain] {
		t.Error("categorical attribute should induce a typo criterion")
	}
	// Clean value passes everything, typo fails at least one criterion.
	clean := data("Education,Salary", "Master,70000")
	typo := data("Education,Salary", "Mastxr,70000")
	if got := s.PassRateAt(clean, 0, 0); got != 1 {
		t.Errorf("clean PassRateAt = %v, want 1", got)
	}
	if got := s.PassRateAt(typo, 0, 0); got >= 1 {
		t.Error("typo must fail at least one criterion")
	}
}

func TestInduceNumeric(t *testing.T) {
	d := eduDataset()
	s := Induce(d, 1, allRows(d), []int{0}, DefaultInduceOptions())
	kinds := map[Kind]bool{}
	for _, c := range s.Criteria {
		kinds[c.Kind] = true
	}
	if !kinds[KindRange] || !kinds[KindNumericType] {
		t.Errorf("numeric attribute should induce range+numeric criteria, got %v", kinds)
	}
	outlier := data("Education,Salary", "Phd,9000000")
	if got := s.PassRateAt(outlier, 0, 1); got >= 1 {
		t.Error("extreme outlier must fail at least one criterion")
	}
}

func TestInduceFD(t *testing.T) {
	d := table.New("t", []string{"Country", "Capital", "Pop"})
	for i := 0; i < 20; i++ {
		d.MustAppendRow([]string{"France", "Paris", "67"})
		d.MustAppendRow([]string{"Japan", "Tokyo", "125"})
	}
	s := Induce(d, 1, allRows(d), []int{0}, DefaultInduceOptions())
	var fd *Criterion
	for _, c := range s.Criteria {
		if c.Kind == KindFD {
			fd = c
		}
	}
	if fd == nil {
		t.Fatal("FD criterion not induced from perfectly dependent attribute")
	}
	if !fd.EvalAt(data("Country,Capital", "France,Paris"), 0, 1) {
		t.Error("consistent pair must pass")
	}
	if fd.EvalAt(data("Country,Capital", "France,Tokyo"), 0, 1) {
		t.Error("rule violation must fail")
	}
}

func TestInduceEmptySample(t *testing.T) {
	d := eduDataset()
	s := Induce(d, 0, nil, nil, DefaultInduceOptions())
	if len(s.Criteria) != 0 {
		t.Error("empty sample should induce nothing")
	}
}

func TestRefineDomain(t *testing.T) {
	s := &Set{Attr: "x", Criteria: []*Criterion{
		{Kind: KindDomain, Attr: "x", Domain: map[string]bool{"a": true, "bad": true}},
	}}
	r := Refine(s, []string{"c"}, []string{"bad"})
	dom := r.Criteria[0].Domain
	if !dom["a"] || !dom["c"] || dom["bad"] {
		t.Errorf("refined domain = %v", dom)
	}
	// Original untouched.
	if !s.Criteria[0].Domain["bad"] {
		t.Error("Refine must not mutate input")
	}
}

func TestRefineRangeExpands(t *testing.T) {
	s := &Set{Attr: "x", Criteria: []*Criterion{
		{Kind: KindRange, Attr: "x", Lo: 10, Hi: 20},
	}}
	r := Refine(s, []string{"5", "25"}, nil)
	c := r.Criteria[0]
	if c.Lo != 5 || c.Hi != 25 {
		t.Errorf("range = [%v,%v], want [5,25]", c.Lo, c.Hi)
	}
}

func TestRefinePatternKeepsCleanShared(t *testing.T) {
	s := &Set{Attr: "x", Criteria: []*Criterion{
		{Kind: KindPattern, Attr: "x", Patterns: map[string]bool{"D[5]": true}},
	}}
	// An error value shares D[5] with a clean value: pattern stays.
	r := Refine(s, []string{"12345"}, []string{"99999"})
	if !r.Criteria[0].Patterns["D[5]"] {
		t.Error("pattern shared with clean values must not be dropped")
	}
	// An error-only pattern is dropped.
	s2 := &Set{Attr: "x", Criteria: []*Criterion{
		{Kind: KindPattern, Attr: "x", Patterns: map[string]bool{"D[5]": true, "u[3]": true}},
	}}
	r2 := Refine(s2, []string{"12345"}, []string{"abc"})
	if r2.Criteria[0].Patterns["u[3]"] {
		t.Error("error-only pattern must be dropped")
	}
}

// Property: a tuple's pass rate is the share of the set's per-criterion
// verdicts (its f_cri bits) that pass, so it always lies in [0, 1].
func TestFeaturesShapeProperty(t *testing.T) {
	d := eduDataset()
	d.SetValue(3, 0, "Mastxr")
	d.SetValue(5, 0, "")
	s := Induce(d, 0, allRows(d), []int{1}, DefaultInduceOptions())
	for i := 0; i < d.NumRows(); i++ {
		pass := 0
		for _, c := range s.Criteria {
			if c.EvalAt(d, i, 0) {
				pass++
			}
		}
		got := s.PassRateAt(d, i, 0)
		if got < 0 || got > 1 || got != float64(pass)/float64(len(s.Criteria)) {
			t.Fatalf("row %d: PassRateAt = %v, want %d/%d passing bits", i, got, pass, len(s.Criteria))
		}
	}
}

func TestVerifySetThresholdEdge(t *testing.T) {
	// A criterion passing exactly 50% of clean rows survives at 0.5.
	c := &Criterion{Kind: KindRange, Attr: "x", Lo: 0, Hi: 10, Name: "edge"}
	d := data("x", "5", "50")
	s := &Set{Attr: "x", Criteria: []*Criterion{c}}
	if v := VerifySetAt(s, d, 0, allRows(d), 0.5); len(v.Criteria) != 1 {
		t.Error("criterion at exactly the threshold must survive")
	}
	if v := VerifySetAt(s, d, 0, allRows(d), 0.51); len(v.Criteria) != 0 {
		t.Error("criterion below the threshold must be removed")
	}
}

func TestInduceDeterministic(t *testing.T) {
	d := eduDataset()
	a := Induce(d, 0, allRows(d), []int{1}, DefaultInduceOptions())
	b := Induce(d, 0, allRows(d), []int{1}, DefaultInduceOptions())
	if len(a.Criteria) != len(b.Criteria) {
		t.Fatal("induction must be deterministic")
	}
	for i := range a.Criteria {
		if a.Criteria[i].Name != b.Criteria[i].Name || a.Criteria[i].Kind != b.Criteria[i].Kind {
			t.Fatal("criterion order/content must be deterministic")
		}
	}
}

func TestUnknownKindPasses(t *testing.T) {
	c := &Criterion{Kind: Kind("future"), Attr: "x"}
	if !eval(c, "anything") {
		t.Error("unknown criterion kinds must default to pass (forward compatibility)")
	}
}
