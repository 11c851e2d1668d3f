package table

import (
	"fmt"
	"sync"
	"testing"
)

// deriveProto builds a rows-free NewFromDicts dataset over a small source
// dataset's dictionaries, the shape a fitted model keeps.
func deriveProto(t testing.TB) (*Dataset, *Dataset) {
	t.Helper()
	src := New("src", []string{"a", "b"})
	src.MustAppendRow([]string{"x", "1"})
	src.MustAppendRow([]string{"y", "2"})
	src.MustAppendRow([]string{"x", "3"})
	proto, err := NewFromDicts("proto", src.Attrs, [][]string{src.Dict(0), src.Dict(1)})
	if err != nil {
		t.Fatal(err)
	}
	return src, proto
}

// TestDeriveInternsSeenAndUnseen: a derived dataset interns seen values to
// their fit-time IDs and unseen values to fresh IDs past the seed.
func TestDeriveInternsSeenAndUnseen(t *testing.T) {
	src, proto := deriveProto(t)
	d := proto.Derive("score")
	if d.Name != "score" || d.NumRows() != 0 || d.NumCols() != 2 {
		t.Fatalf("derived dataset %q has %d rows, %d cols", d.Name, d.NumRows(), d.NumCols())
	}
	d.MustAppendRow([]string{"y", "3"})
	d.MustAppendRow([]string{"novel", "1"})
	d.MustAppendRow([]string{"novel", "other"})
	for _, c := range []struct {
		row, col int
		v        string
	}{{0, 0, "y"}, {0, 1, "3"}, {1, 1, "1"}} {
		if id, _ := src.LookupID(c.col, c.v); d.ValueID(c.row, c.col) != id {
			t.Errorf("seen value %q interned to ID %d, want %d", c.v, d.ValueID(c.row, c.col), id)
		}
	}
	if int(d.ValueID(1, 0)) != src.DictSize(0) || d.ValueID(2, 0) != d.ValueID(1, 0) {
		t.Errorf("unseen value IDs %d, %d, want both %d", d.ValueID(1, 0), d.ValueID(2, 0), src.DictSize(0))
	}
	if int(d.ValueID(2, 1)) != src.DictSize(1) {
		t.Errorf("unseen value ID %d, want %d", d.ValueID(2, 1), src.DictSize(1))
	}
	if id, ok := d.LookupID(0, "novel"); !ok || int(id) != src.DictSize(0) {
		t.Errorf("LookupID(novel) = %d, %v", id, ok)
	}
	if d.Value(1, 0) != "novel" || d.Value(0, 0) != "y" {
		t.Errorf("values read back %q, %q", d.Value(1, 0), d.Value(0, 0))
	}
}

// TestDeriveSiblingsIsolated: datasets derived from one proto hand out the
// same fresh ID independently, and neither leaks into the proto.
func TestDeriveSiblingsIsolated(t *testing.T) {
	_, proto := deriveProto(t)
	size := proto.DictSize(0)
	a, b := proto.Derive("a"), proto.Derive("b")
	a.MustAppendRow([]string{"only-a", "1"})
	b.MustAppendRow([]string{"only-b", "1"})
	if int(a.ValueID(0, 0)) != size || int(b.ValueID(0, 0)) != size {
		t.Fatalf("sibling fresh IDs %d, %d, want both %d", a.ValueID(0, 0), b.ValueID(0, 0), size)
	}
	if a.Value(0, 0) != "only-a" || b.Value(0, 0) != "only-b" {
		t.Fatalf("siblings read back %q, %q", a.Value(0, 0), b.Value(0, 0))
	}
	if _, ok := a.LookupID(0, "only-b"); ok {
		t.Error("sibling's value leaked into a")
	}
	if proto.DictSize(0) != size {
		t.Errorf("proto dict grew to %d entries, want %d", proto.DictSize(0), size)
	}
	for _, v := range []string{"only-a", "only-b"} {
		if _, ok := proto.LookupID(0, v); ok {
			t.Errorf("derived value %q leaked into the proto", v)
		}
	}
}

// TestDeriveViewsResolveBaseAndOverlay: every copy or view of a derived
// dataset resolves both the shared base values and its own overlay values,
// and deriving from a dataset with an overlay carries the overlay along.
func TestDeriveViewsResolveBaseAndOverlay(t *testing.T) {
	_, proto := deriveProto(t)
	d := proto.Derive("score")
	d.MustAppendRow([]string{"x", "1"})
	d.MustAppendRow([]string{"novel", "2"})
	baseID, _ := d.LookupID(0, "x")
	overID, _ := d.LookupID(0, "novel")

	views := map[string]*Dataset{
		"Clone":      d.Clone(),
		"Snapshot":   d.Snapshot(),
		"SubsetRows": d.SubsetRows([]int{1, 0}),
		"Derive":     d.Derive("again"),
	}
	for name, v := range views {
		if id, ok := v.LookupID(0, "x"); !ok || id != baseID {
			t.Errorf("%s: base value resolves to %d, %v; want %d", name, id, ok, baseID)
		}
		if id, ok := v.LookupID(0, "novel"); !ok || id != overID {
			t.Errorf("%s: overlay value resolves to %d, %v; want %d", name, id, ok, overID)
		}
		if name == "Snapshot" {
			continue // read-only view
		}
		// Interning either again must reuse its ID, not mint a new one.
		before := v.DictSize(0)
		v.MustAppendRow([]string{"novel", "x"})
		v.MustAppendRow([]string{"x", "1"})
		if v.DictSize(0) != before {
			t.Errorf("%s: re-interning known values grew the dict %d -> %d", name, before, v.DictSize(0))
		}
		if v.ValueID(v.NumRows()-2, 0) != overID || v.ValueID(v.NumRows()-1, 0) != baseID {
			t.Errorf("%s: re-interned IDs %d, %d; want %d, %d", name,
				v.ValueID(v.NumRows()-2, 0), v.ValueID(v.NumRows()-1, 0), overID, baseID)
		}
	}
	if rows := views["SubsetRows"]; rows.Value(0, 0) != "novel" || rows.Value(1, 0) != "x" {
		t.Errorf("SubsetRows reads %q, %q", rows.Value(0, 0), rows.Value(1, 0))
	}

	// ErrorMask resolves the derived side's base and overlay values in the
	// other dataset's pool, and the other way round.
	plain := New("plain", d.Attrs)
	plain.MustAppendRow([]string{"x", "1"})
	plain.MustAppendRow([]string{"novel", "3"})
	want := [][]bool{{false, false}, {false, true}}
	for _, pair := range [][2]*Dataset{{d, plain}, {plain, d}} {
		mask, err := ErrorMask(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if mask[i][j] != want[i][j] {
					t.Errorf("ErrorMask(%s, %s)[%d][%d] = %v, want %v", pair[0].Name, pair[1].Name, i, j, mask[i][j], want[i][j])
				}
			}
		}
	}
}

// TestDeriveConcurrent: goroutines deriving from one shared proto and
// appending to their own datasets race with nothing (run under -race).
func TestDeriveConcurrent(t *testing.T) {
	_, proto := deriveProto(t)
	size := proto.DictSize(0)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := proto.Derive(fmt.Sprintf("g%d", g))
			for i := 0; i < 50; i++ {
				if err := d.AppendRow([]string{fmt.Sprintf("g%d-%d", g, i%5), "1"}); err != nil {
					errc <- err
					return
				}
				if _, ok := proto.LookupID(0, "y"); !ok {
					errc <- fmt.Errorf("proto lost a seen value")
					return
				}
			}
			if d.DictSize(0) != size+5 {
				errc <- fmt.Errorf("g%d: dict has %d entries, want %d", g, d.DictSize(0), size+5)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if proto.DictSize(0) != size {
		t.Errorf("proto dict grew to %d entries", proto.DictSize(0))
	}
}

// TestDeriveCostIndependentOfDictSize pins the mechanism: deriving from a
// rows-free NewFromDicts dataset shares the frozen index instead of
// rebuilding it, so its allocations do not grow with the dictionary.
func TestDeriveCostIndependentOfDictSize(t *testing.T) {
	allocs := func(n int) float64 {
		dict := make([]string, n)
		for i := range dict {
			dict[i] = fmt.Sprintf("v%d", i)
		}
		proto, err := NewFromDicts("proto", []string{"a", "b"}, [][]string{dict, dict})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { _ = proto.Derive("score") })
	}
	small, large := allocs(10), allocs(100_000)
	if small != large {
		t.Fatalf("Derive allocates %v times over a 10-entry dictionary but %v over a 100000-entry one", small, large)
	}
}
