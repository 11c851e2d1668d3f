package table

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadCSV drives arbitrary bytes through both CSV load paths and pins
// three properties: no panics, chunked load ≡ whole-file load (same
// error-ness, same cells, same dictionary IDs), and write/read round-trip
// stability for anything that parses.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n3,4\n"))
	f.Add([]byte("name,addr\nalice,\"1 Main St, Apt 4\"\n"))
	f.Add([]byte("a,b\n\"x\ny\",\"she said \"\"hi\"\"\"\n"))
	f.Add([]byte("a,b\n1\n"))          // ragged
	f.Add([]byte("a,b\n,\n,\n"))       // empty fields
	f.Add([]byte(""))                  // no header
	f.Add([]byte("a,\"b\n"))           // unterminated quote
	f.Add([]byte("a,b\r\n1,2\r\n"))    // CRLF
	f.Add([]byte("a,a,a\nx,y,z\n"))    // duplicate attrs
	f.Add([]byte("\xff\xfe,b\n1,2\n")) // invalid utf8
	f.Add([]byte("a;b\n1;2\n"))        // wrong delimiter (single column)

	f.Fuzz(func(t *testing.T, data []byte) {
		whole, wholeErr := Read("f", FormatCSV, bytes.NewReader(data))

		// Chunked load must agree with the one-shot load, including on
		// whether the input is malformed.
		var chunked *Dataset
		s, err := NewCSVStream("f", bytes.NewReader(data))
		chunkedErr := err
		if err == nil {
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

		// Round trip: what we serialize must parse back to the same cells.
		var buf bytes.Buffer
		if err := whole.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of parsed dataset: %v", err)
		}
		again, err := Read("f", FormatCSV, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing our own output: %v", err)
		}
		if again.NumRows() != whole.NumRows() || again.NumCols() != whole.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d",
				again.NumRows(), again.NumCols(), whole.NumRows(), whole.NumCols())
		}
		for j := 0; j < whole.NumCols(); j++ {
			for i := 0; i < whole.NumRows(); i++ {
				if whole.Value(i, j) != again.Value(i, j) {
					t.Fatalf("round trip changed cell (%d,%d): %q -> %q",
						i, j, whole.Value(i, j), again.Value(i, j))
				}
			}
		}
	})
}
