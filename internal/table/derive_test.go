package table

import (
	"fmt"
	"strings"
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

// TestStreamIntoDerive: loading a body into a Derive interns each cell once
// to the same IDs, in the same order, as appending the parsed rows; the
// derived dataset records its origin; a header that is not the schema is
// rejected before any row is read.
func TestStreamIntoDerive(t *testing.T) {
	_, proto := deriveProto(t)
	body := "a,b\ny,3\nnovel,1\nx,other\nnovel,3\n"
	src, err := NewCSVSource(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamInto(proto.Derive("body"), src)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAll(); err != nil {
		t.Fatal(err)
	}
	got := s.Dataset()
	want := proto.Derive("rows")
	plain, err := Read("plain", FormatCSV, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < plain.NumRows(); i++ {
		want.MustAppendRow(plain.Row(i))
	}
	assertSameDataset(t, want, got)
	if !got.DerivedFrom(proto) || plain.DerivedFrom(proto) || proto.DerivedFrom(proto) || got.DerivedFrom(nil) {
		t.Error("DerivedFrom must hold exactly for datasets made by proto.Derive")
	}
	if got.Derive("again").DerivedFrom(proto) {
		t.Error("a Derive of a derived dataset is derived from that dataset, not from its origin")
	}

	src, err = NewCSVSource(strings.NewReader("b,a\n1,x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamInto(proto.Derive("body"), src); err == nil {
		t.Error("a permuted header must be mapped with MapSource first, not loaded as is")
	}
}

// TestAppendFromSharesOriginIDs: appending rows of a sibling Derive copies
// fit-time IDs as they are and interns only the sibling's own values, ending
// with the dataset a row-by-row AppendRow builds; a source with another
// origin, or none, is interned by string to the same result.
func TestAppendFromSharesOriginIDs(t *testing.T) {
	_, proto := deriveProto(t)
	_, otherProto := deriveProto(t)
	rows := [][]string{{"novel", "1"}, {"y", "fresh"}, {"x", "3"}, {"novel", "fresh"}, {"past-n", "2"}}
	for name, src := range map[string]*Dataset{
		"sibling": proto.Derive("chunk"),
		"foreign": otherProto.Derive("chunk"),
		"plain":   New("chunk", proto.Attrs),
	} {
		for _, r := range rows {
			src.MustAppendRow(r)
		}
		// The accumulator already holds an unseen value, so the source's
		// fresh IDs mean other values in it.
		got, want := proto.Derive("accum"), proto.Derive("accum")
		for _, d := range []*Dataset{got, want} {
			d.MustAppendRow([]string{"earlier", "2"})
		}
		for _, r := range rows[:4] {
			want.MustAppendRow(r)
		}
		if err := got.AppendFrom(src, 4); err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { assertSameDataset(t, want, got) })
	}
	if err := proto.Derive("a").AppendFrom(New("n", []string{"a"}), 0); err == nil {
		t.Error("an arity mismatch must be rejected")
	}
	if err := proto.Derive("a").AppendFrom(proto.Derive("b"), 1); err == nil {
		t.Error("appending more rows than the source holds must be rejected")
	}
}

// TestCloneOfDeriveIsCheap: cloning a Derive of a large dictionary-seeded
// dataset shares the dictionary instead of copying it, and stays isolated:
// values the clone interns never reach the original.
func TestCloneOfDeriveIsCheap(t *testing.T) {
	dict := make([]string, 100_000)
	for i := range dict {
		dict[i] = fmt.Sprintf("v%d", i)
	}
	proto, err := NewFromDicts("proto", []string{"a"}, [][]string{dict})
	if err != nil {
		t.Fatal(err)
	}
	d := proto.Derive("body")
	d.MustAppendRow([]string{"v7"})
	d.MustAppendRow([]string{"novel"})
	c := d.Clone()
	if &c.cols[0].dict[0] != &d.cols[0].dict[0] {
		t.Error("Clone copied the dictionary instead of sharing it")
	}
	c.SetValue(0, 0, "clone-only")
	if _, ok := d.LookupID(0, "clone-only"); ok || d.Value(0, 0) != "v7" || d.DictSize(0) != len(dict)+1 {
		t.Error("a value interned by the clone reached the original")
	}
	if c.Value(0, 0) != "clone-only" || c.Value(1, 0) != "novel" {
		t.Errorf("clone reads %q, %q", c.Value(0, 0), c.Value(1, 0))
	}
}
