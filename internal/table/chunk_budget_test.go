package table

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestReadChunkRejectsNonPositiveBudget is the regression test for the old
// maxRows<=0 drain-all sentinel: a caller whose computed chunk budget hit
// zero used to silently consume the entire remaining stream. Now the
// sentinel is explicit (ReadAll) and a non-positive budget is an error that
// appends nothing.
func TestReadChunkRejectsNonPositiveBudget(t *testing.T) {
	for _, budget := range []int{0, -1, -100} {
		src, err := NewCSVSource(strings.NewReader("a,b\n1,2\n3,4\n"))
		if err != nil {
			t.Fatal(err)
		}
		s := NewStream("b", src)
		n, err := s.ReadChunk(budget)
		if err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("ReadChunk(%d) = (%d, %v), want a budget error", budget, n, err)
		}
		if n != 0 || s.Dataset().NumRows() != 0 {
			t.Fatalf("ReadChunk(%d) consumed %d rows (dataset has %d); a rejected budget must not drain the stream",
				budget, n, s.Dataset().NumRows())
		}
		// The stream stays usable: the rejection did not consume input.
		if n, err := s.ReadChunk(10); n != 2 || err != nil && err != io.EOF {
			t.Fatalf("read after rejected budget = (%d, %v), want 2 rows", n, err)
		}
	}
}

// TestReadChunkHeaderOnlyBody: a chunked read over a header-only body
// reports io.EOF with zero rows on the first budgeted call, and the dataset
// keeps the parsed schema.
func TestReadChunkHeaderOnlyBody(t *testing.T) {
	src, err := NewCSVSource(strings.NewReader("a,b,c\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream("h", src)
	n, err := s.ReadChunk(16)
	if n != 0 || err != io.EOF {
		t.Fatalf("header-only ReadChunk = (%d, %v), want (0, io.EOF)", n, err)
	}
	if got := s.Dataset().NumCols(); got != 3 {
		t.Fatalf("header-only dataset has %d cols, want 3", got)
	}
	if n, err := s.ReadChunk(16); n != 0 || err != io.EOF {
		t.Fatalf("repeated header-only ReadChunk = (%d, %v), want (0, io.EOF)", n, err)
	}
}

// TestReadChunkMidRecordTruncation: a body cut off inside a quoted record
// surfaces a parse error from the budgeted read, and every complete row
// before the truncation point is retained.
func TestReadChunkMidRecordTruncation(t *testing.T) {
	in := "a,b\n1,2\n3,\"unterminated quote"
	src, err := NewCSVSource(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream("t", src)
	total := 0
	var lastErr error
	for {
		n, err := s.ReadChunk(1)
		total += n
		if err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil || errors.Is(lastErr, io.EOF) {
		t.Fatalf("truncated record must surface a parse error, got %v", lastErr)
	}
	if total != 1 || s.Dataset().NumRows() != 1 || s.Dataset().Value(0, 1) != "2" {
		t.Fatalf("rows before the truncation must be retained: read %d, dataset has %d",
			total, s.Dataset().NumRows())
	}
}
