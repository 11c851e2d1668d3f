package table

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// messyNDJSON is the NDJSON twin of messyCSV: array and object framings
// mixed per line, non-string scalars, nulls, blank lines, repeated values
// (interning), and unicode.
const messyNDJSON = `["name","addr","note"]
["alice","1 Main St, Apt 4","hello"]
{"name":"bob","addr":"line1\nline2","note":"she said \"hi\""}

["","",""]
{"note":"hello","name":"alice","addr":"1 Main St, Apt 4"}
["Ünïcôdé",null,3.5]
`

func TestNDJSONSelfDescribing(t *testing.T) {
	d, err := Read("m", FormatNDJSON, strings.NewReader(messyNDJSON))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 5 || d.NumCols() != 3 {
		t.Fatalf("shape %dx%d, want 5x3", d.NumRows(), d.NumCols())
	}
	if got := d.Value(1, 2); got != `she said "hi"` {
		t.Fatalf("escaped quotes parsed as %q", got)
	}
	if got := d.Value(4, 1); got != "" {
		t.Fatalf("null cell parsed as %q, want empty", got)
	}
	if got := d.Value(4, 2); got != "3.5" {
		t.Fatalf("number cell parsed as %q, want its JSON text", got)
	}
	// Object rows bind by key, not position: row 3's permuted object must
	// intern to the same IDs as row 0's array framing.
	if d.ValueID(0, 1) != d.ValueID(3, 1) {
		t.Fatal("repeated value not interned to one ID across framings")
	}
}

func TestNDJSONObjectHeader(t *testing.T) {
	in := `{"x":"a","y":1}
{"y":2,"x":"b"}
["c",null]
`
	d, err := Read("o", FormatNDJSON, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(d.Attrs, ","); got != "x,y" {
		t.Fatalf("object header gave attrs %q, want x,y (document order)", got)
	}
	// The header object is itself the first data row.
	want := [][2]string{{"a", "1"}, {"b", "2"}, {"c", ""}}
	if d.NumRows() != len(want) {
		t.Fatalf("rows %d, want %d", d.NumRows(), len(want))
	}
	for i, w := range want {
		if d.Value(i, 0) != w[0] || d.Value(i, 1) != w[1] {
			t.Fatalf("row %d = (%q,%q), want (%q,%q)", i, d.Value(i, 0), d.Value(i, 1), w[0], w[1])
		}
	}
}

func TestNDJSONErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "no header line"},
		{"blank only", "\n\n", "no header line"},
		{"scalar header", "42\n", "must be a JSON array or object"},
		{"non-string header cell", `["a",3]` + "\n", "must be a JSON string"},
		{"duplicate header key", `{"a":1,"a":2}` + "\n", `repeats attribute "a"`},
		{"empty header object", `{}` + "\n", "no attributes"},
		{"arity", "[\"a\",\"b\"]\n[1]\n", "has 1 cells, want 2"},
		{"missing attr", "[\"a\",\"b\"]\n{\"a\":1}\n", `missing attribute "b"`},
		{"unknown attr", "[\"a\",\"b\"]\n{\"a\":1,\"b\":2,\"c\":3}\n", `unknown attribute "c"`},
		{"nested cell", "[\"a\"]\n[[1,2]]\n", "must be a scalar"},
		{"not json", "[\"a\"]\nnot json\n", "line 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read("e", FormatNDJSON, strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want it to mention %q", err, c.want)
			}
		})
	}
	// Header-only input is valid and empty, mirroring header-only CSV.
	d, err := Read("e", FormatNDJSON, strings.NewReader(`["a","b"]`+"\n"))
	if err != nil || d.NumRows() != 0 || d.NumCols() != 2 {
		t.Fatalf("header-only NDJSON: %v rows=%d", err, d.NumRows())
	}
}

// TestNDJSONChunkInvariance pins the tentpole determinism contract at the
// table level: the same NDJSON bytes loaded at any chunk size (and via
// ReadAll) produce identical datasets, including dictionary IDs.
func TestNDJSONChunkInvariance(t *testing.T) {
	whole, err := Read("m", FormatNDJSON, strings.NewReader(messyNDJSON))
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 64} {
		src, err := NewSource(FormatNDJSON, strings.NewReader(messyNDJSON))
		if err != nil {
			t.Fatal(err)
		}
		s := NewStream("m", src)
		for {
			if _, err := s.ReadChunk(chunk); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		assertSameDataset(t, whole, s.Dataset())
	}
	src, err := NewSource(FormatNDJSON, strings.NewReader(messyNDJSON))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream("m", src)
	if err := s.ReadAll(); err != nil {
		t.Fatal(err)
	}
	assertSameDataset(t, whole, s.Dataset())
}

// TestNDJSONMatchesCSV pins cross-format equality: the same logical table
// ingested as CSV and as NDJSON yields identical datasets, including
// dictionary IDs — the property the service leans on to promise identical
// verdict bytes for both formats.
func TestNDJSONMatchesCSV(t *testing.T) {
	csvIn := "a,b\nx,1\ny,2\nx,1\n"
	ndjsonIn := `["a","b"]
["x","1"]
{"a":"y","b":"2"}
["x",1]
`
	fromCSV, err := Read("t", FormatCSV, strings.NewReader(csvIn))
	if err != nil {
		t.Fatal(err)
	}
	fromNDJSON, err := Read("t", FormatNDJSON, strings.NewReader(ndjsonIn))
	if err != nil {
		t.Fatal(err)
	}
	assertSameDataset(t, fromCSV, fromNDJSON)
}

func TestFormatForMediaType(t *testing.T) {
	cases := []struct {
		ct, want string
		ok       bool
	}{
		{"text/csv", FormatCSV, true},
		{"text/csv; charset=utf-8", FormatCSV, true},
		{"application/csv", FormatCSV, true},
		{"TEXT/CSV", FormatCSV, true},
		{"application/x-ndjson", FormatNDJSON, true},
		{"application/x-ndjson; charset=utf-8", FormatNDJSON, true},
		{"application/ndjson", FormatNDJSON, true},
		{"application/jsonl", FormatNDJSON, true},
		{"application/json", FormatNDJSON, true},
		{"text/plain", "", false},
		{"", "", false},
		{";;;", "", false},
	}
	for _, c := range cases {
		got, ok := FormatForMediaType(c.ct)
		if got != c.want || ok != c.ok {
			t.Errorf("FormatForMediaType(%q) = (%q, %v), want (%q, %v)", c.ct, got, ok, c.want, c.ok)
		}
	}
}

func TestFormatForPath(t *testing.T) {
	for path, want := range map[string]string{
		"data.csv":      FormatCSV,
		"data.txt":      FormatCSV,
		"data":          FormatCSV,
		"data.ndjson":   FormatNDJSON,
		"data.jsonl":    FormatNDJSON,
		"data.json":     FormatNDJSON,
		"DATA.NDJSON":   FormatNDJSON,
		"a/b/data.json": FormatNDJSON,
	} {
		if got := FormatForPath(path); got != want {
			t.Errorf("FormatForPath(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestMapColumns(t *testing.T) {
	schema := []string{"a", "b", "c"}

	m, err := MapColumns(schema, []string{"a", "b", "c"})
	if err != nil || !m.Identity() {
		t.Fatalf("equal header: %v identity=%v", err, m != nil && m.Identity())
	}

	m, err = MapColumns(schema, []string{"c", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Identity() {
		t.Fatal("permutation must not be the identity")
	}
	row, err := m.Apply([]string{"C", "A", "B"})
	if err != nil || strings.Join(row, "") != "ABC" {
		t.Fatalf("permuted Apply = %v (%v), want [A B C]", row, err)
	}

	m, err = MapColumns(schema, []string{"x", "b", "a", "y", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(m.Dropped, ","); got != "x,y" {
		t.Fatalf("Dropped = %q, want x,y (header order)", got)
	}
	row, err = m.Apply([]string{"X", "B", "A", "Y", "C"})
	if err != nil || strings.Join(row, "") != "ABC" {
		t.Fatalf("superset Apply = %v (%v), want [A B C]", row, err)
	}
	if _, err := m.Apply([]string{"too", "short"}); err == nil {
		t.Fatal("arity mismatch must error")
	}

	_, err = MapColumns(schema, []string{"a", "c"})
	var miss *MissingColumnsError
	if !errors.As(err, &miss) {
		t.Fatalf("missing column must be a *MissingColumnsError, got %v", err)
	}
	if len(miss.Missing) != 1 || miss.Missing[0] != "b" {
		t.Fatalf("Missing = %v, want [b]", miss.Missing)
	}

	if _, err := MapColumns(schema, []string{"a", "b", "b", "c"}); err == nil ||
		!strings.Contains(err.Error(), `repeats column "b"`) {
		t.Fatalf("duplicate header: %v", err)
	}
	if _, err := MapColumns([]string{"a", "a"}, []string{"a", "b"}); err == nil ||
		!strings.Contains(err.Error(), `schema repeats column "a"`) {
		t.Fatalf("duplicate schema: %v", err)
	}
}

// TestMapSourcePermutationEqualsIdentity pins the schema-mapping property
// the score endpoints lean on: a permuted (or superset) upload, mapped onto
// the schema, loads into the exact dataset the schema-ordered upload loads
// into — same cells, same dictionary IDs.
func TestMapSourcePermutationEqualsIdentity(t *testing.T) {
	identity := "a,b\nx,1\ny,2\nx,1\n"
	permuted := "b,a\n1,x\n2,y\n1,x\n"
	superset := "junk,b,extra,a\nJ,1,E,x\nJ,2,E,y\nJ,1,E,x\n"

	want, err := Read("t", FormatCSV, strings.NewReader(identity))
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]string{"permuted": permuted, "superset": superset} {
		raw, err := NewCSVSource(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		src, m, err := MapSource([]string{"a", "b"}, raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "superset" && len(m.Dropped) != 2 {
			t.Fatalf("superset dropped %v, want 2 columns", m.Dropped)
		}
		s := NewStream("t", src)
		if err := s.ReadAll(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameDataset(t, want, s.Dataset())
	}

	// Identity mapping returns the source untouched.
	raw, err := NewCSVSource(strings.NewReader(identity))
	if err != nil {
		t.Fatal(err)
	}
	src, m, err := MapSource([]string{"a", "b"}, raw)
	if err != nil || !m.Identity() || src != RowSource(raw) {
		t.Fatalf("identity MapSource must return the source itself (m=%+v)", m)
	}
}

func TestProject(t *testing.T) {
	d, err := Read("t", FormatCSV, strings.NewReader("x,a,b\nX1,A1,B1\nX2,A1,B2\n"))
	if err != nil {
		t.Fatal(err)
	}
	p, m, err := Project(d, []string{"b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(m.Dropped, ","); got != "x" {
		t.Fatalf("Dropped = %q, want x", got)
	}
	if strings.Join(p.Attrs, ",") != "b,a" || p.NumRows() != 2 {
		t.Fatalf("projection shape: attrs=%v rows=%d", p.Attrs, p.NumRows())
	}
	if p.Value(1, 0) != "B2" || p.Value(1, 1) != "A1" {
		t.Fatalf("projected cells: %q,%q", p.Value(1, 0), p.Value(1, 1))
	}
	// Value IDs within a kept column are preserved from the original.
	if p.ValueID(0, 1) != d.ValueID(0, 1) || p.ValueID(1, 1) != d.ValueID(1, 1) {
		t.Fatal("projection must preserve per-column value IDs")
	}
	// The projection is a deep copy: mutating it leaves d untouched.
	p.SetValue(0, 0, "MUT")
	if d.Value(0, 2) == "MUT" {
		t.Fatal("projection leaked into the original")
	}
	// Identity projection returns the dataset itself.
	same, m2, err := Project(d, []string{"x", "a", "b"})
	if err != nil || same != d || !m2.Identity() {
		t.Fatalf("identity projection must return d itself: %v", err)
	}
	if _, _, err := Project(d, []string{"a", "missing"}); err == nil {
		t.Fatal("missing schema column must error")
	}
}

// FuzzNDJSONStream drives arbitrary bytes through both self-describing
// NDJSON load paths and pins the FuzzReadCSV properties for the second
// ingest format: no panics, and chunked load ≡ whole-input load — same
// error-ness, same cells, same dictionary IDs.
func FuzzNDJSONStream(f *testing.F) {
	f.Add([]byte(messyNDJSON))
	f.Add([]byte(`["a","b"]` + "\n" + `["1","2"]` + "\n"))
	f.Add([]byte(`{"x":"a","y":null}` + "\n" + `{"y":1,"x":"b"}` + "\n"))
	f.Add([]byte(`{"a":1,"a":2}`))
	f.Add([]byte("[\"a\"]\n[[1,2]]\n"))
	f.Add([]byte("\n\n[\"a\"]\n\n[3]\n"))
	f.Add([]byte("not json"))
	f.Add([]byte("\xff\xfe\x00 garbage"))
	f.Add(bytes.Repeat([]byte(`["a","b"]`+"\n"), 50))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("cap input size to keep executions fast")
		}
		whole, wholeErr := Read("f", FormatNDJSON, bytes.NewReader(data))

		var chunked *Dataset
		src, chunkedErr := NewSource(FormatNDJSON, bytes.NewReader(data))
		if chunkedErr == nil {
			s := NewStream("f", src)
			chunked = s.Dataset()
			for chunkedErr == nil {
				_, chunkedErr = s.ReadChunk(3)
			}
			if chunkedErr == io.EOF {
				chunkedErr = nil
			}
		}
		if (wholeErr == nil) != (chunkedErr == nil) {
			t.Fatalf("load modes disagree: whole=%v chunked=%v", wholeErr, chunkedErr)
		}
		if wholeErr != nil {
			return
		}
		if whole.NumRows() != chunked.NumRows() {
			t.Fatalf("chunked load has %d rows, whole has %d", chunked.NumRows(), whole.NumRows())
		}
		for j := 0; j < whole.NumCols(); j++ {
			if whole.DictSize(j) != chunked.DictSize(j) {
				t.Fatalf("col %d dict size differs: %d vs %d", j, whole.DictSize(j), chunked.DictSize(j))
			}
			for i := 0; i < whole.NumRows(); i++ {
				if whole.Value(i, j) != chunked.Value(i, j) || whole.ValueID(i, j) != chunked.ValueID(i, j) {
					t.Fatalf("cell (%d,%d) differs between load modes", i, j)
				}
			}
		}
	})
}

// FuzzMapColumns throws arbitrary schema/header pairs at the column mapper:
// it must never panic, and any mapping it accepts must project rows onto
// the schema exactly — every schema column sourced from the header position
// holding that name, extras dropped, nothing invented.
func FuzzMapColumns(f *testing.F) {
	f.Add("a,b,c", "a,b,c")
	f.Add("a,b", "b,a")
	f.Add("a,b", "x,b,a,y")
	f.Add("a,b,c", "a,c")
	f.Add("a", "a,a")
	f.Add("a,a", "a")
	f.Add("", "")
	f.Add("a b,c", "c,a b")

	f.Fuzz(func(t *testing.T, schemaCSV, headerCSV string) {
		schema := strings.Split(schemaCSV, ",")
		header := strings.Split(headerCSV, ",")
		m, err := MapColumns(schema, header)
		if err != nil {
			var miss *MissingColumnsError
			if errors.As(err, &miss) && len(miss.Missing) == 0 {
				t.Fatal("MissingColumnsError with nothing missing")
			}
			return
		}
		if len(m.Src) != len(schema) || len(m.Dropped)+len(schema) != len(header) {
			t.Fatalf("mapping shape: src=%d dropped=%d schema=%d header=%d",
				len(m.Src), len(m.Dropped), len(schema), len(header))
		}
		row := make([]string, len(header))
		for i := range row {
			row[i] = header[i] + "!"
		}
		out, err := m.Apply(row)
		if err != nil {
			t.Fatalf("Apply on a header-arity row: %v", err)
		}
		for j, a := range schema {
			if out[j] != a+"!" {
				t.Fatalf("schema col %d (%q) sourced %q, want %q", j, a, out[j], a+"!")
			}
		}
	})
}
