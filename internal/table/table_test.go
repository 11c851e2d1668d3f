package table

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Dataset {
	d := New("tax", []string{"Name", "Gender", "Education", "Salary"})
	d.MustAppendRow([]string{"Bob Johnson", "M", "Phd", "80000"})
	d.MustAppendRow([]string{"Carol Brown", "F", "Master", "6000"})
	d.MustAppendRow([]string{"DaveGreen", "M", "Bechxlor", "64000"})
	return d
}

func TestShape(t *testing.T) {
	d := sample()
	if d.NumRows() != 3 || d.NumCols() != 4 || d.NumCells() != 12 {
		t.Fatalf("shape = %dx%d (%d cells), want 3x4 (12)", d.NumRows(), d.NumCols(), d.NumCells())
	}
}

func TestValueAccess(t *testing.T) {
	d := sample()
	if got := d.Value(1, 3); got != "6000" {
		t.Errorf("Value(1,3) = %q, want 6000", got)
	}
	d.SetValue(1, 3, "60000")
	if got := d.Value(1, 3); got != "60000" {
		t.Errorf("after SetValue, Value(1,3) = %q, want 60000", got)
	}
}

func TestColIndex(t *testing.T) {
	d := sample()
	if got := d.ColIndex("Salary"); got != 3 {
		t.Errorf("ColIndex(Salary) = %d, want 3", got)
	}
	if got := d.ColIndex("missing"); got != -1 {
		t.Errorf("ColIndex(missing) = %d, want -1", got)
	}
}

func TestColumn(t *testing.T) {
	d := sample()
	col := d.Column(1)
	want := []string{"M", "F", "M"}
	for i := range want {
		if col[i] != want[i] {
			t.Errorf("Column(1)[%d] = %q, want %q", i, col[i], want[i])
		}
	}
	col[0] = "X"
	if d.Value(0, 1) != "M" {
		t.Error("mutating Column result must not affect dataset")
	}
}

func TestAppendRowArityError(t *testing.T) {
	d := sample()
	rows := d.NumRows()
	if err := d.AppendRow([]string{"only", "three", "fields"}); err == nil {
		t.Fatal("AppendRow with wrong arity must return an error")
	}
	if d.NumRows() != rows {
		t.Fatalf("failed AppendRow must leave the dataset unchanged: %d rows, want %d", d.NumRows(), rows)
	}
}

func TestMustAppendRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppendRow with wrong arity must panic")
		}
	}()
	sample().MustAppendRow([]string{"only", "three", "fields"})
}

func TestCloneIsDeep(t *testing.T) {
	d := sample()
	c := d.Clone()
	c.SetValue(0, 0, "Changed")
	if d.Value(0, 0) != "Bob Johnson" {
		t.Error("Clone must not share row storage")
	}
	c.Attrs[0] = "Renamed"
	if d.Attrs[0] != "Name" {
		t.Error("Clone must not share attribute storage")
	}
}

func TestRowMap(t *testing.T) {
	m := sample().RowMap(2)
	if m["Name"] != "DaveGreen" || m["Education"] != "Bechxlor" {
		t.Errorf("RowMap = %v", m)
	}
}

func TestSerializeTuple(t *testing.T) {
	got := sample().SerializeTuple(0)
	want := "Name: Bob Johnson, Gender: M, Education: Phd, Salary: 80000"
	if got != want {
		t.Errorf("SerializeTuple = %q, want %q", got, want)
	}
}

func TestSerializeRows(t *testing.T) {
	got := sample().SerializeRows([]int{0, 2})
	if !strings.Contains(got, "Bob Johnson") || !strings.Contains(got, "DaveGreen") {
		t.Errorf("SerializeRows missing rows: %q", got)
	}
	if strings.Count(got, "\n") != 2 {
		t.Errorf("SerializeRows should emit one line per row: %q", got)
	}
}

func TestErrorMask(t *testing.T) {
	clean := sample()
	dirty := clean.Clone()
	dirty.SetValue(1, 3, "")
	dirty.SetValue(2, 2, "Bachelor?!")
	mask, err := ErrorMask(dirty, clean)
	if err != nil {
		t.Fatal(err)
	}
	if !mask[1][3] || !mask[2][2] {
		t.Error("injected errors not flagged")
	}
	if mask[0][0] {
		t.Error("clean cell flagged")
	}
	rate, err := ErrorRate(dirty, clean)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.0 / 12.0; rate != want {
		t.Errorf("ErrorRate = %v, want %v", rate, want)
	}
}

func TestErrorMaskShapeMismatch(t *testing.T) {
	if _, err := ErrorMask(sample(), sample().SubsetRows([]int{0, 1})); err == nil {
		t.Error("shape mismatch must error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read("tax", FormatCSV, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != d.NumRows() || back.NumCols() != d.NumCols() {
		t.Fatalf("round trip shape %dx%d", back.NumRows(), back.NumCols())
	}
	for i := 0; i < d.NumRows(); i++ {
		for j := 0; j < d.NumCols(); j++ {
			if back.Value(i, j) != d.Value(i, j) {
				t.Errorf("cell (%d,%d) = %q, want %q", i, j, back.Value(i, j), d.Value(i, j))
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := Read("x", FormatCSV, strings.NewReader("")); err == nil {
		t.Error("empty csv must error")
	}
}

// ---- Columnar core: ID-level accessors and intern-pool semantics ----

func TestValueIDsShareDictEntries(t *testing.T) {
	d := sample()
	// Gender column: "M", "F", "M" — two dict entries, rows 0 and 2 share one.
	if got := d.DictSize(1); got != 2 {
		t.Fatalf("DictSize(Gender) = %d, want 2", got)
	}
	if d.ValueID(0, 1) != d.ValueID(2, 1) {
		t.Error("equal values must share a value ID")
	}
	if d.ValueID(0, 1) == d.ValueID(1, 1) {
		t.Error("distinct values must have distinct IDs")
	}
	if got := d.DictValue(1, d.ValueID(1, 1)); got != "F" {
		t.Errorf("DictValue = %q, want F", got)
	}
}

func TestLookupID(t *testing.T) {
	d := sample()
	id, ok := d.LookupID(2, "Master")
	if !ok || d.DictValue(2, id) != "Master" {
		t.Errorf("LookupID(Master) = (%d, %v)", id, ok)
	}
	if _, ok := d.LookupID(2, "never-written"); ok {
		t.Error("LookupID must miss for unseen values")
	}
}

func TestSetValueRoundTripAndDictGrowth(t *testing.T) {
	d := sample()
	before := d.DictSize(3)
	d.SetValue(1, 3, "brand-new-salary")
	if got := d.Value(1, 3); got != "brand-new-salary" {
		t.Errorf("Value after SetValue = %q", got)
	}
	if got := d.DictSize(3); got != before+1 {
		t.Errorf("novel value must grow the dict: %d -> %d", before, got)
	}
	// Writing a value already in the pool must not grow it.
	d.SetValue(0, 3, "brand-new-salary")
	if got := d.DictSize(3); got != before+1 {
		t.Errorf("existing value must reuse its dict entry, dict = %d", got)
	}
	if d.ValueID(0, 3) != d.ValueID(1, 3) {
		t.Error("rewritten cells with equal values must share an ID")
	}
	// Overwritten entries stay in the pool (append-only), but DistinctCount
	// reflects only values actually present.
	if dc, ds := d.DistinctCount(3), d.DictSize(3); dc > ds {
		t.Errorf("DistinctCount %d exceeds DictSize %d", dc, ds)
	}
}

func TestForEachIDAndColumnIDs(t *testing.T) {
	d := sample()
	ids := d.ColumnIDs(1)
	var got []uint32
	d.ForEachID(1, func(row int, id uint32) {
		if ids[row] != id {
			t.Errorf("ColumnIDs[%d] = %d, ForEachID saw %d", row, ids[row], id)
		}
		got = append(got, id)
	})
	if len(got) != d.NumRows() {
		t.Fatalf("ForEachID visited %d rows, want %d", len(got), d.NumRows())
	}
	for i, id := range got {
		if d.DictValue(1, id) != d.Value(i, 1) {
			t.Errorf("row %d: id %d decodes to %q, want %q", i, id, d.DictValue(1, id), d.Value(i, 1))
		}
	}
}

func TestCloneDictIsolation(t *testing.T) {
	d := sample()
	c := d.Clone()
	c.SetValue(0, 0, "only-in-clone")
	if _, ok := d.LookupID(0, "only-in-clone"); ok {
		t.Error("Clone must not share intern pools with the original")
	}
	if d.Value(0, 0) != "Bob Johnson" {
		t.Error("Clone must not share cell storage")
	}
	// Mutating the original after cloning must not leak either.
	d.SetValue(1, 0, "only-in-original")
	if _, ok := c.LookupID(0, "only-in-original"); ok {
		t.Error("original mutations must not appear in the clone's pool")
	}
}

func TestSubsetRows(t *testing.T) {
	d := sample()
	s := d.SubsetRows([]int{2, 0})
	if s.NumRows() != 2 {
		t.Fatalf("SubsetRows rows = %d, want 2", s.NumRows())
	}
	if s.Value(0, 0) != "DaveGreen" || s.Value(1, 0) != "Bob Johnson" {
		t.Errorf("SubsetRows order wrong: %q, %q", s.Value(0, 0), s.Value(1, 0))
	}
	s.SetValue(0, 0, "X")
	if d.Value(2, 0) != "DaveGreen" {
		t.Error("SubsetRows must not share storage")
	}
}

func TestDistinctCountIgnoresStaleDictEntries(t *testing.T) {
	d := New("t", []string{"A"})
	d.MustAppendRow([]string{"x"})
	d.MustAppendRow([]string{"y"})
	d.SetValue(1, 0, "x") // "y" is now stale in the pool
	if got := d.DistinctCount(0); got != 1 {
		t.Errorf("DistinctCount = %d, want 1", got)
	}
	if got := d.DictSize(0); got != 2 {
		t.Errorf("DictSize = %d, want 2 (append-only pool)", got)
	}
}

// Property: load → mutate via SetValue → Value/Column match plain row-major
// reference semantics exactly.
func TestColumnarMatchesRowMajorSemantics(t *testing.T) {
	f := func(writes []uint16, vals []string) bool {
		d := New("p", []string{"a", "b", "c"})
		ref := [][]string{}
		for i := 0; i < 5; i++ {
			row := []string{"a0", "b0", "c0"}
			d.MustAppendRow(row)
			ref = append(ref, append([]string(nil), row...))
		}
		for k, w := range writes {
			if len(vals) == 0 {
				break
			}
			i, j := int(w)%5, int(w/8)%3
			v := vals[k%len(vals)]
			d.SetValue(i, j, v)
			ref[i][j] = v
		}
		for i := range ref {
			for j := range ref[i] {
				if d.Value(i, j) != ref[i][j] {
					return false
				}
			}
		}
		for j := 0; j < 3; j++ {
			col := d.Column(j)
			for i := range ref {
				if col[i] != ref[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: serialization of any dataset with quoted/comma-laden values
// survives a CSV round trip.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		if strings.ContainsAny(a+b+c, "\r") {
			return true // csv normalizes \r\n; out of scope
		}
		d := New("p", []string{"x", "y", "z"})
		d.MustAppendRow([]string{a, b, c})
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := Read("p", FormatCSV, &buf)
		if err != nil {
			return false
		}
		return back.Value(0, 0) == a && back.Value(0, 1) == b && back.Value(0, 2) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ErrorRate is 0 for identical datasets and monotone in the
// number of corrupted cells.
func TestErrorRateProperty(t *testing.T) {
	f := func(n uint8) bool {
		clean := sample()
		dirty := clean.Clone()
		k := int(n) % 12
		cnt := 0
		for i := 0; i < clean.NumRows() && cnt < k; i++ {
			for j := 0; j < clean.NumCols() && cnt < k; j++ {
				dirty.SetValue(i, j, dirty.Value(i, j)+"~corrupt~")
				cnt++
			}
		}
		rate, err := ErrorRate(dirty, clean)
		return err == nil && rate == float64(k)/12.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNewFromDicts covers the artifact-binding constructor: pre-seeded IDs
// match the source dictionaries, appended rows intern seen values to their
// original IDs and unseen values past the seed without mutating the
// caller's backing arrays, and impossible dictionaries are rejected.
func TestNewFromDicts(t *testing.T) {
	src := New("src", []string{"a", "b"})
	src.MustAppendRow([]string{"x", "1"})
	src.MustAppendRow([]string{"y", "2"})
	src.MustAppendRow([]string{"x", "3"})

	dicts := [][]string{src.Dict(0), src.Dict(1)}
	d, err := NewFromDicts("bound", src.Attrs, dicts)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 0 {
		t.Fatalf("fresh bound dataset has %d rows", d.NumRows())
	}
	if err := d.AppendRow([]string{"y", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRow([]string{"novel", "1"}); err != nil {
		t.Fatal(err)
	}
	// Seen values keep their source IDs.
	if id, _ := src.LookupID(0, "y"); d.ValueID(0, 0) != id {
		t.Errorf("seen value re-interned to ID %d, want %d", d.ValueID(0, 0), id)
	}
	// Unseen values get IDs past the seed, and the source dicts stay
	// untouched.
	if int(d.ValueID(1, 0)) != len(dicts[0]) {
		t.Errorf("novel value got ID %d, want %d", d.ValueID(1, 0), len(dicts[0]))
	}
	if src.DictSize(0) != 2 {
		t.Errorf("source dict grew to %d entries", src.DictSize(0))
	}
	if d.Value(1, 0) != "novel" {
		t.Errorf("novel value reads back %q", d.Value(1, 0))
	}

	// Shape and uniqueness violations are errors.
	if _, err := NewFromDicts("bad", []string{"a"}, nil); err == nil {
		t.Error("dict/attr arity mismatch accepted")
	}
	if _, err := NewFromDicts("bad", []string{"a"}, [][]string{{"v", "v"}}); err == nil {
		t.Error("duplicate dict entry accepted")
	}
}
