package feature

import (
	"slices"
	"testing"

	"repro/internal/criteria"
	"repro/internal/table"
)

func sample() *table.Dataset {
	d := table.New("tax", []string{"Name", "Gender", "Education", "Salary"})
	names := []string{"Alice", "Bob", "Carol", "Dave"}
	genders := []string{"F", "M", "F", "M"}
	edus := []string{"Phd", "Master", "Bachelor", "Master"}
	for r := 0; r < 25; r++ {
		for i := range names {
			d.MustAppendRow([]string{names[i], genders[i], edus[i], "50000"})
		}
	}
	return d
}

// cell returns the unified feature vector of cell (i, j) via FeatureInto.
func cell(e *Extractor, i, j int) []float64 {
	out := make([]float64, e.Dim())
	e.FeatureInto(i, j, out)
	return out
}

func TestDimensions(t *testing.T) {
	e := NewExtractor(sample(), Config{EmbedDim: 16, CorrK: 2})
	wantBase := 1 + 2 + 3 + 16 + MaxCriteriaFeatures
	if got := e.BaseDim(); got != wantBase {
		t.Errorf("BaseDim = %d, want %d", got, wantBase)
	}
	if got := e.Dim(); got != wantBase*3 {
		t.Errorf("Dim = %d, want %d", got, wantBase*3)
	}
}

func TestCorrKClamp(t *testing.T) {
	e := NewExtractor(sample(), Config{EmbedDim: 8, CorrK: 99})
	if got := len(e.Correlated(0)); got != 3 {
		t.Errorf("CorrK clamp: got %d correlated attrs, want 3", got)
	}
}

func TestNameGenderCorrelation(t *testing.T) {
	e := NewExtractor(sample(), DefaultConfig())
	// Name determines Gender exactly; Gender must be among Name's top-2.
	if !slices.Contains(e.Correlated(0), 1) {
		t.Errorf("Gender not in Name's correlated set %v", e.Correlated(0))
	}
}

func TestCriteriaFeaturesWired(t *testing.T) {
	d := sample()
	d.SetValue(0, 3, "99") // a salary that will fail a range criterion
	e := NewExtractor(d, Config{EmbedDim: 8, CorrK: 1})
	set := &criteria.Set{Attr: "Salary", Criteria: []*criteria.Criterion{
		{Kind: criteria.KindRange, Attr: "Salary", Lo: 10000, Hi: 90000},
	}}
	e.SetCriteria(3, set)
	critStart := 1 + 1 + 3 + 8
	bad := cell(e, 0, 3)
	good := cell(e, 1, 3)
	if bad[critStart] != 0 {
		t.Errorf("failing criterion bit = %v, want 0", bad[critStart])
	}
	if good[critStart] != 1 {
		t.Errorf("passing criterion bit = %v, want 1", good[critStart])
	}
	// Padding is neutral 1.0.
	if bad[critStart+1] != 1 {
		t.Errorf("padding bit = %v, want 1", bad[critStart+1])
	}
}

func TestDisableCriteriaAblation(t *testing.T) {
	d := sample()
	d.SetValue(0, 3, "99")
	e := NewExtractor(d, Config{EmbedDim: 8, CorrK: 1, DisableCriteria: true})
	set := &criteria.Set{Attr: "Salary", Criteria: []*criteria.Criterion{
		{Kind: criteria.KindRange, Attr: "Salary", Lo: 10000, Hi: 90000},
	}}
	e.SetCriteria(3, set)
	critStart := 1 + 1 + 3 + 8
	f := cell(e, 0, 3)
	if f[critStart] != 1 {
		t.Error("w/o Crit. ablation must pad criteria block with neutral 1s")
	}
}

func TestDisableCorrelatedAblation(t *testing.T) {
	e := NewExtractor(sample(), Config{EmbedDim: 8, CorrK: 2, DisableCorrelated: true})
	f := cell(e, 0, 0)
	if slices.ContainsFunc(f[e.BaseDim():], func(v float64) bool { return v != 0 }) {
		t.Fatal("w/o Corr. ablation must zero the correlated blocks")
	}
}

func TestValueFrequencyFeature(t *testing.T) {
	e := NewExtractor(sample(), Config{EmbedDim: 8, CorrK: 1})
	f := cell(e, 0, 0) // "Alice" appears 25/100 times
	if f[0] != 0.25 {
		t.Errorf("value frequency = %v, want 0.25", f[0])
	}
	// Vicinity: Gender "F" given... index 1 is vicinity w.r.t. top-1
	// correlated attr; Alice co-occurs with F always and F appears 50
	// times, so count(Alice|F)/count(F) = 25/50 when Gender is top corr.
	if e.Correlated(0)[0] == 1 && f[1] != 0.5 {
		t.Errorf("vicinity frequency = %v, want 0.5", f[1])
	}
}

// TestColumnFeatures checks the clustering input's layout: FeaturesInto
// writes one Dim-wide vector per requested row and nothing past them.
func TestColumnFeatures(t *testing.T) {
	e := NewExtractor(sample(), Config{EmbedDim: 8, CorrK: 1})
	rows := []int{0, 1, 2}
	tile := make([]float64, (len(rows)+1)*e.Dim())
	poison(tile)
	e.FeaturesInto(2, rows, tile)
	written, rest := tile[:len(rows)*e.Dim()], tile[len(rows)*e.Dim():]
	if slices.Contains(written, -999) || slices.ContainsFunc(rest, func(v float64) bool { return v != -999 }) {
		t.Fatal("FeaturesInto must fill exactly len(rows)*Dim values")
	}
}

// TestFeatureMatchesEvalAtCriteria cross-checks the per-value-ID memoized
// criteria bits against the unmemoized reference evaluation EvalAt,
// including a row-dependent FD criterion.
func TestFeatureMatchesEvalAtCriteria(t *testing.T) {
	d := sample()
	d.SetValue(0, 2, "Phd")     // break Name->Education for row 0
	d.SetValue(1, 3, "notanum") // fail numeric range
	e := NewExtractor(d, Config{EmbedDim: 8, CorrK: 1})
	set := &criteria.Set{Attr: "Education", Criteria: []*criteria.Criterion{
		{Kind: criteria.KindDomain, Attr: "Education", Name: "dom",
			Domain: map[string]bool{"phd": true, "master": true, "bachelor": true}},
		{Kind: criteria.KindFD, Attr: "Education", Name: "fd", DetAttr: "Name",
			Mapping: map[string]string{"Alice": "Phd", "Bob": "Master", "Carol": "Bachelor", "Dave": "Master"}},
	}}
	e.SetCriteria(2, set)
	bitsMatchEvalAt(t, e, d, 2, set)
}

// bitsMatchEvalAt checks the criteria bits the extractor writes for every
// cell of column j against EvalAt, criterion by criterion.
func bitsMatchEvalAt(t *testing.T, e *Extractor, d *table.Dataset, j int, set *criteria.Set) {
	t.Helper()
	critStart := 1 + e.cfg.CorrK + 3 + e.cfg.EmbedDim
	for i := 0; i < d.NumRows(); i++ {
		f := cell(e, i, j)
		for k, c := range set.Criteria {
			if got, want := f[critStart+k] == 1, c.EvalAt(d, i, j); got != want {
				t.Fatalf("row %d criterion %d: extractor bit %v, EvalAt %v", i, k, got, want)
			}
		}
	}
}

// TestFDMissingDetAttrAgrees covers FD criteria whose determinant
// attribute is absent from the schema. Every path then reads the
// determinant as the empty value: EvalAt directly, SetMemo keyed on the
// own value ID alone, and the extractor through evalFDSlot's reference
// fallback (detCol == -1). All of them must agree cell by cell.
func TestFDMissingDetAttrAgrees(t *testing.T) {
	d := sample()
	d.SetValue(5, 2, "")       // null cells pass FD criteria
	d.SetValue(6, 2, "Doctor") // fails the empty-determinant mapping
	e := NewExtractor(d, Config{EmbedDim: 8, CorrK: 1})
	set := &criteria.Set{Attr: "Education", Criteria: []*criteria.Criterion{
		// The mapping's "" entry is what a missing determinant looks up.
		{Kind: criteria.KindFD, Attr: "Education", DetAttr: "Country", Mapping: map[string]string{"": "Master"}},
		{Kind: criteria.KindFD, Attr: "Education", DetAttr: "Country", Mapping: map[string]string{"France": "Phd"}},
	}}
	e.SetCriteria(2, set)
	bitsMatchEvalAt(t, e, d, 2, set)
	memo := criteria.NewSetMemo(d, 2, set)
	for i := 0; i < d.NumRows(); i++ {
		if got, want := memo.PassRateAt(i), set.PassRateAt(d, i, 2); got != want {
			t.Fatalf("row %d: SetMemo.PassRateAt %v != PassRateAt %v", i, got, want)
		}
	}
	// Rows 0 (Phd) and 6 fail the "" mapping: its accuracy here is 3/5.
	clean := []int{0, 1, 5, 6, 7}
	for threshold, kept := range map[float64]int{0.5: 2, 0.99: 1} {
		want := criteria.VerifySetAt(set, d, 2, clean, threshold).Criteria
		got := criteria.NewSetMemo(d, 2, set).Verify(clean, threshold).Set().Criteria
		if len(want) != kept || !slices.Equal(got, want) {
			t.Fatalf("threshold %v: Verify kept %v, VerifySetAt %v, want %d kept", threshold, got, want, kept)
		}
	}
}

// TestFeatureAfterDictGrowth verifies that values interned after extractor
// construction (the synthetic-augmentation path) still produce correct
// features via the fallback path.
func TestFeatureAfterDictGrowth(t *testing.T) {
	d := sample()
	e := NewExtractor(d, Config{EmbedDim: 8, CorrK: 1})
	set := &criteria.Set{Attr: "Salary", Criteria: []*criteria.Criterion{
		{Kind: criteria.KindRange, Attr: "Salary", Lo: 10000, Hi: 90000},
	}}
	e.SetCriteria(3, set)
	d.SetValue(0, 3, "totally-novel-999999") // novel value: dict grows past the memos
	f := cell(e, 0, 3)
	if f[0] != 0 {
		t.Errorf("novel value frequency = %v, want 0", f[0])
	}
	critStart := 1 + 1 + 3 + 8
	if f[critStart] != 0 {
		t.Errorf("novel out-of-range value must fail the range criterion, got %v", f[critStart])
	}
	d.SetValue(0, 3, "50000") // restore
	g := cell(e, 0, 3)
	if g[critStart] != 1 {
		t.Errorf("restored value must pass the range criterion, got %v", g[critStart])
	}
}

// TestFeatureIntoZeroAllocs is the steady-state allocation regression
// guard: once the extractor is built, per-cell feature extraction must not
// allocate.
func TestFeatureIntoZeroAllocs(t *testing.T) {
	d := sample()
	e := NewExtractor(d, Config{EmbedDim: 8, CorrK: 2})
	set := &criteria.Set{Attr: "Salary", Criteria: []*criteria.Criterion{
		{Kind: criteria.KindRange, Attr: "Salary", Lo: 10000, Hi: 90000},
		{Kind: criteria.KindFD, Attr: "Salary", DetAttr: "Name",
			Mapping: map[string]string{"Alice": "50000"}},
	}}
	e.SetCriteria(3, set)
	out := make([]float64, e.Dim())
	allocs := testing.AllocsPerRun(100, func() {
		e.FeatureInto(0, 3, out)
		e.FeatureInto(1, 0, out)
	})
	if allocs != 0 {
		t.Errorf("FeatureInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestRowFeaturesIntoMatchesFeatureInto pins both tile forms against the
// per-cell FeatureInto element for element, including under the ablations:
// RowFeaturesInto (every cell of a row, the scoring path) and FeaturesInto
// (one column over a row set, the clustering path).
func TestRowFeaturesIntoMatchesFeatureInto(t *testing.T) {
	for _, cfg := range []Config{
		{EmbedDim: 8, CorrK: 1},
		{EmbedDim: 8, CorrK: 2},
		{EmbedDim: 8, CorrK: 2, DisableCorrelated: true},
		{EmbedDim: 8, CorrK: 2, DisableCriteria: true},
	} {
		d := sample()
		d.SetValue(0, 2, "Phd") // perturb one cell so rows differ
		e := NewExtractor(d, cfg)
		set := &criteria.Set{Attr: "Education", Criteria: []*criteria.Criterion{
			{Kind: criteria.KindFD, Attr: "Education", DetAttr: "Name",
				Mapping: map[string]string{"Alice": "Phd", "Bob": "Master", "Carol": "Bachelor", "Dave": "Master"}},
		}}
		e.SetCriteria(2, set)
		dim := e.Dim()
		rowTile := make([]float64, d.NumCols()*dim)
		for i := 0; i < 8; i++ {
			poison(rowTile)
			e.RowFeaturesInto(i, rowTile)
			for j := 0; j < d.NumCols(); j++ {
				if got := rowTile[j*dim : (j+1)*dim]; !slices.Equal(got, cell(e, i, j)) {
					t.Fatalf("cfg %+v row %d col %d: RowFeaturesInto differs from FeatureInto", cfg, i, j)
				}
			}
		}
		rows := []int{0, 3, 7, 42, 3}
		colTile := make([]float64, len(rows)*dim)
		for j := 0; j < d.NumCols(); j++ {
			poison(colTile)
			e.FeaturesInto(j, rows, colTile)
			for idx, i := range rows {
				if got := colTile[idx*dim : (idx+1)*dim]; !slices.Equal(got, cell(e, i, j)) {
					t.Fatalf("cfg %+v col %d row %d: FeaturesInto differs from FeatureInto", cfg, j, i)
				}
			}
		}
	}
}

// poison fills a tile with a sentinel so a value a tile form fails to
// write shows up as a mismatch.
func poison(tile []float64) {
	for k := range tile {
		tile[k] = -999
	}
}

// TestRowFeaturesIntoZeroAllocs guards the tile path's steady-state
// allocation-free contract.
func TestRowFeaturesIntoZeroAllocs(t *testing.T) {
	d := sample()
	e := NewExtractor(d, Config{EmbedDim: 8, CorrK: 2})
	tile := make([]float64, d.NumCols()*e.Dim())
	allocs := testing.AllocsPerRun(100, func() {
		e.RowFeaturesInto(0, tile)
		e.RowFeaturesInto(1, tile)
	})
	if allocs != 0 {
		t.Errorf("RowFeaturesInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestDepColsCoverFeatureInputs checks the dedup-key contract: two rows
// that agree on the value IDs of DepCols(j) must produce identical feature
// vectors for attribute j, and DepCols must include the column itself plus
// its correlated set and any FD determinant.
func TestDepColsCoverFeatureInputs(t *testing.T) {
	d := sample()
	e := NewExtractor(d, Config{EmbedDim: 8, CorrK: 2})
	set := &criteria.Set{Attr: "Salary", Criteria: []*criteria.Criterion{
		{Kind: criteria.KindFD, Attr: "Salary", DetAttr: "Name",
			Mapping: map[string]string{"Alice": "50000"}},
	}}
	e.SetCriteria(3, set)
	for j := 0; j < d.NumCols(); j++ {
		dep := e.DepCols(j)
		has := map[int]bool{}
		for _, c := range dep {
			has[c] = true
		}
		if !has[j] {
			t.Errorf("DepCols(%d) = %v misses the column itself", j, dep)
		}
		for _, q := range e.Correlated(j) {
			if !has[q] {
				t.Errorf("DepCols(%d) = %v misses correlated attr %d", j, dep, q)
			}
		}
		for i := 1; i < len(dep); i++ {
			if dep[i] <= dep[i-1] {
				t.Errorf("DepCols(%d) = %v not sorted ascending", j, dep)
			}
		}
	}
	// FD determinant (Name, col 0) must be a dependency of Salary (col 3).
	if !slices.Contains(e.DepCols(3), 0) {
		t.Errorf("DepCols(3) = %v misses FD determinant column 0", e.DepCols(3))
	}
	// The behavioral contract: equal dep-IDs ⇒ equal features. Rows 0 and 4
	// are replicas in sample(), so they agree on every column.
	if !slices.Equal(cell(e, 0, 3), cell(e, 4, 3)) {
		t.Fatal("rows with identical dep IDs produce different feature vectors")
	}
}

func BenchmarkFeatureInto(b *testing.B) {
	e := NewExtractor(sample(), DefaultConfig())
	out := make([]float64, e.Dim())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.FeatureInto(i%100, i%4, out)
	}
}

func BenchmarkRowFeaturesInto(b *testing.B) {
	d := sample()
	e := NewExtractor(d, DefaultConfig())
	tile := make([]float64, d.NumCols()*e.Dim())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.RowFeaturesInto(i%100, tile)
	}
}
