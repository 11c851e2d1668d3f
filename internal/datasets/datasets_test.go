package datasets

import (
	"math"
	"testing"

	"repro/internal/errgen"
	"repro/internal/table"
)

// tableII lists the expected shapes and approximate error rates of each
// benchmark (error-rate targets within a tolerance band; the injector's
// skip paths make exact rates stochastic).
var tableII = []struct {
	name     string
	gen      Generator
	rows     int
	attrs    int
	errRate  float64
	tol      float64
	defaultN bool
}{
	{"Hospital", Hospital, 1000, 20, 0.048, 0.02, true},
	{"Flights", Flights, 2376, 7, 0.345, 0.08, true},
	{"Beers", Beers, 2410, 11, 0.125, 0.04, true},
	{"Rayyan", Rayyan, 1000, 11, 0.29, 0.06, true},
	{"Billionaire", Billionaire, 2615, 22, 0.098, 0.03, true},
	{"Movies", Movies, 7390, 17, 0.05, 0.02, true},
}

func TestTableIIShapes(t *testing.T) {
	for _, tc := range tableII {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.gen(0, 1)
			if b.Dirty.NumRows() != tc.rows {
				t.Errorf("rows = %d, want %d", b.Dirty.NumRows(), tc.rows)
			}
			if b.Dirty.NumCols() != tc.attrs {
				t.Errorf("attrs = %d, want %d", b.Dirty.NumCols(), tc.attrs)
			}
			got, err := b.ErrorRate()
			if err != nil {
				t.Fatalf("ErrorRate: %v", err)
			}
			if math.Abs(got-tc.errRate) > tc.tol {
				t.Errorf("error rate = %.4f, want %.4f +/- %.3f", got, tc.errRate, tc.tol)
			}
		})
	}
}

func TestTaxShape(t *testing.T) {
	b := Tax(5000, 1) // small subset; default 200k is exercised in benches
	if b.Dirty.NumCols() != 22 {
		t.Errorf("Tax attrs = %d, want 22", b.Dirty.NumCols())
	}
	if b.Dirty.NumRows() != 5000 {
		t.Errorf("Tax rows = %d, want 5000", b.Dirty.NumRows())
	}
	rate, err := b.ErrorRate()
	if err != nil {
		t.Fatalf("ErrorRate: %v", err)
	}
	if rate <= 0 || rate > 0.01 {
		t.Errorf("Tax error rate = %v, want small nonzero", rate)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Hospital(200, 7)
	b := Hospital(200, 7)
	for i := 0; i < a.Dirty.NumRows(); i++ {
		for j := 0; j < a.Dirty.NumCols(); j++ {
			if a.Dirty.Value(i, j) != b.Dirty.Value(i, j) {
				t.Fatal("same seed must produce identical datasets")
			}
		}
	}
	c := Hospital(200, 8)
	same := true
	for i := 0; i < a.Dirty.NumRows() && same; i++ {
		for j := 0; j < a.Dirty.NumCols(); j++ {
			if a.Dirty.Value(i, j) != c.Dirty.Value(i, j) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestInjectionLogConsistent(t *testing.T) {
	for _, tc := range tableII {
		b := tc.gen(500, 3)
		mask, err := table.ErrorMask(b.Dirty, b.Clean)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, inj := range b.Log {
			if !mask[inj.Row][inj.Col] {
				t.Errorf("%s: logged injection (%d,%d) not in mask", tc.name, inj.Row, inj.Col)
			}
		}
	}
}

func TestHospitalFDsHold(t *testing.T) {
	b := Hospital(500, 2)
	// In CLEAN data the declared FDs must hold exactly.
	for _, p := range b.FDPairs {
		seen := map[string]string{}
		for i := 0; i < b.Clean.NumRows(); i++ {
			det := b.Clean.Value(i, p[0])
			dep := b.Clean.Value(i, p[1])
			if prev, ok := seen[det]; ok && prev != dep {
				t.Errorf("FD %s->%s violated in clean data: %q maps to %q and %q",
					b.Clean.Attrs[p[0]], b.Clean.Attrs[p[1]], det, prev, dep)
				break
			}
			seen[det] = dep
		}
	}
}

func TestTaxFDsHold(t *testing.T) {
	b := Tax(2000, 2)
	for _, p := range b.FDPairs {
		seen := map[string]string{}
		for i := 0; i < b.Clean.NumRows(); i++ {
			det := b.Clean.Value(i, p[0])
			dep := b.Clean.Value(i, p[1])
			if prev, ok := seen[det]; ok && prev != dep {
				t.Errorf("FD %s->%s violated in clean Tax data", b.Clean.Attrs[p[0]], b.Clean.Attrs[p[1]])
				break
			}
			seen[det] = dep
		}
	}
}

func TestKnowledgeBaseCoverage(t *testing.T) {
	h := Hospital(300, 1)
	if !h.KB.HasType("City") || !h.KB.HasType("State") || !h.KB.HasType("Condition") {
		t.Error("Hospital KB should cover City, State, Condition")
	}
	cov := h.KB.CoverageFor("City", h.Clean.Column(3))
	if cov < 0.99 {
		t.Errorf("Hospital City KB coverage = %v, want ~1", cov)
	}
	// Per the paper, KATARA has no relevant KB for Flights/Beers/Rayyan.
	for _, gen := range []Generator{Flights, Beers, Rayyan, Movies} {
		b := gen(100, 1)
		if b.KB.Types() != 0 {
			t.Errorf("%s KB should be empty, has %d types", b.Name, b.KB.Types())
		}
	}
}

func TestRegistryAndByName(t *testing.T) {
	if len(Registry()) != 7 {
		t.Errorf("registry has %d datasets, want 7", len(Registry()))
	}
	if ByName("Hospital") == nil {
		t.Error("ByName(Hospital) = nil")
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
	if len(Names()) != 7 {
		t.Error("Names() length mismatch")
	}
}

func TestErrorTypeMixturePerDataset(t *testing.T) {
	// Each dataset's injection log must contain its Table II error types.
	expect := map[string][]errgen.Type{
		"Hospital":    {errgen.Typo, errgen.PatternViolation, errgen.Outlier, errgen.RuleViolation},
		"Flights":     {errgen.Missing, errgen.Typo, errgen.PatternViolation, errgen.RuleViolation},
		"Beers":       {errgen.Missing, errgen.PatternViolation, errgen.Typo, errgen.Outlier, errgen.RuleViolation},
		"Rayyan":      {errgen.Missing, errgen.PatternViolation, errgen.Typo, errgen.Outlier, errgen.RuleViolation},
		"Billionaire": {errgen.Missing, errgen.PatternViolation, errgen.Typo, errgen.Outlier},
		"Movies":      {errgen.Missing, errgen.PatternViolation, errgen.Outlier},
	}
	for _, tc := range tableII {
		b := tc.gen(0, 1)
		have := map[errgen.Type]bool{}
		for _, inj := range b.Log {
			have[inj.Type] = true
		}
		for _, want := range expect[tc.name] {
			if !have[want] {
				t.Errorf("%s: missing injected error type %s", tc.name, want)
			}
		}
	}
	// Movies must have no rule violations (Table II: RV 0).
	m := Movies(0, 1)
	for _, inj := range m.Log {
		if inj.Type == errgen.RuleViolation {
			t.Error("Movies must not contain rule violations")
			break
		}
	}
}
