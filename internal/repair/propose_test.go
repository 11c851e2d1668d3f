package repair

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/datasets"
	"repro/internal/table"
)

// bindTo loads d's rows into a Derive of a dataset seeded with fit's
// dictionaries, the way a served repair body is interned into a model's
// dictionaries: values fit holds take fit's IDs, in fit's order, and the
// rest fresh IDs past them.
func bindTo(t testing.TB, fit, d *table.Dataset) *table.Dataset {
	t.Helper()
	dicts := make([][]string, fit.NumCols())
	for j := range dicts {
		dicts[j] = fit.Dict(j)
	}
	proto, err := table.NewFromDicts("fit", fit.Attrs, dicts)
	if err != nil {
		t.Fatal(err)
	}
	bound := proto.Derive("body")
	if err := bound.AppendFrom(d, d.NumRows()); err != nil {
		t.Fatal(err)
	}
	return bound
}

// TestProposeGolden pins every fix Propose makes under the ground-truth
// mask on four generated benchmarks at three sizes. The generators run
// through errgen, so the pin also guards the generated dirty tables. The
// bound arm repairs the same tables interned into the dictionaries of a
// larger instance of the same generator, as a served body is: other IDs,
// in another order, over a dictionary larger than the table, and the
// same fixes.
func TestProposeGolden(t *testing.T) {
	const (
		wantFixes = 5854
		wantHash  = "232cfb38cf32f319817047d2c4d58fe3062704b87898c33f880ea65b2c759d6f"
	)
	for _, arm := range []string{"upload", "bound"} {
		h := sha256.New()
		n := 0
		for _, gen := range []datasets.Generator{datasets.Hospital, datasets.Tax, datasets.Beers, datasets.Flights} {
			var fit *table.Dataset
			if arm == "bound" {
				fit = gen(3000, 8).Dirty
			}
			for _, size := range []int{100, 400, 1500} {
				b := gen(size, 7)
				mask, err := table.ErrorMask(b.Dirty, b.Clean)
				if err != nil {
					t.Fatal(err)
				}
				d := b.Dirty
				if fit != nil {
					d = bindTo(t, fit, d)
				}
				for _, f := range New(Config{}).Propose(d, mask) {
					fmt.Fprintf(h, "%d|%d|%q|%q|%s\n", f.Row, f.Col, f.Old, f.New, f.Strategy)
					n++
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if n != wantFixes || got != wantHash {
			t.Errorf("Propose golden (%s): %d fixes, sha256 %s; want %d fixes, sha256 %s", arm, n, got, wantFixes, wantHash)
		}
	}
}

// BenchmarkPropose repairs request-sized Hospital bodies under the
// ground-truth mask. The "upload" arm rebuilds each body row by row so its
// dictionaries hold only the body's values, as a fresh upload's do; the
// "bound" arm interns it into the dictionaries of the whole 2000-row
// table, as a body served against a model fitted on it is, so its cost
// must not grow with that dictionary.
func BenchmarkPropose(b *testing.B) {
	bench := datasets.Hospital(2000, 1)
	full, err := table.ErrorMask(bench.Dirty, bench.Clean)
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{100, 400} {
		d := table.New("body", bench.Dirty.Attrs)
		for i := 0; i < rows; i++ {
			d.MustAppendRow(bench.Dirty.Row(i))
		}
		mask := full[:rows]
		for _, arm := range []struct {
			name string
			d    *table.Dataset
		}{{"upload", d}, {"bound", bindTo(b, bench.Dirty, d)}} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, arm.name), func(b *testing.B) {
				b.ReportAllocs()
				r := New(Config{})
				for b.Loop() {
					r.Propose(arm.d, mask)
				}
			})
		}
	}
}
