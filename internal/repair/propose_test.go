package repair

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/datasets"
	"repro/internal/table"
)

// TestProposeGolden pins every fix Propose makes under the ground-truth
// mask on four generated benchmarks at three sizes. The generators run
// through errgen, so the pin also guards the generated dirty tables.
func TestProposeGolden(t *testing.T) {
	const (
		wantFixes = 5854
		wantHash  = "232cfb38cf32f319817047d2c4d58fe3062704b87898c33f880ea65b2c759d6f"
	)
	h := sha256.New()
	n := 0
	for _, gen := range []datasets.Generator{datasets.Hospital, datasets.Tax, datasets.Beers, datasets.Flights} {
		for _, size := range []int{100, 400, 1500} {
			b := gen(size, 7)
			mask, err := table.ErrorMask(b.Dirty, b.Clean)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range New(Config{}).Propose(b.Dirty, mask) {
				fmt.Fprintf(h, "%d|%d|%q|%q|%s\n", f.Row, f.Col, f.Old, f.New, f.Strategy)
				n++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if n != wantFixes || got != wantHash {
		t.Errorf("Propose golden: %d fixes, sha256 %s; want %d fixes, sha256 %s", n, got, wantFixes, wantHash)
	}
}

// BenchmarkPropose repairs request-sized Hospital bodies under the
// ground-truth mask. Each body is rebuilt row by row so its dictionaries
// hold only the body's values, as an uploaded request's do.
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
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			r := New(Config{})
			for b.Loop() {
				r.Propose(d, mask)
			}
		})
	}
}
