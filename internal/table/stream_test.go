package table

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// messyCSV exercises the encoding edge cases the chunked reader must agree
// with the one-shot reader on: quoted commas, embedded newlines and escaped
// quotes, empty fields, repeated values (interning), and unicode.
const messyCSV = "name,addr,note\n" +
	"alice,\"1 Main St, Apt 4\",hello\n" +
	"bob,\"line1\nline2\",\"she said \"\"hi\"\"\"\n" +
	",,\n" +
	"alice,\"1 Main St, Apt 4\",hello\n" +
	"Ünïcôdé,\"\",plain\n"

// assertSameDataset checks full equality including dictionary IDs: the
// chunked loader must intern values in the same order as the one-shot path.
func assertSameDataset(t *testing.T, want, got *Dataset) {
	t.Helper()
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		t.Fatalf("shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for j, a := range want.Attrs {
		if got.Attrs[j] != a {
			t.Fatalf("attr %d = %q, want %q", j, got.Attrs[j], a)
		}
	}
	for j := 0; j < want.NumCols(); j++ {
		if want.DictSize(j) != got.DictSize(j) {
			t.Fatalf("col %d dict size %d, want %d", j, got.DictSize(j), want.DictSize(j))
		}
		for i := 0; i < want.NumRows(); i++ {
			if want.Value(i, j) != got.Value(i, j) {
				t.Fatalf("cell (%d,%d) = %q, want %q", i, j, got.Value(i, j), want.Value(i, j))
			}
			if want.ValueID(i, j) != got.ValueID(i, j) {
				t.Fatalf("cell (%d,%d) ID = %d, want %d (dict IDs must be stable across load modes)",
					i, j, got.ValueID(i, j), want.ValueID(i, j))
			}
		}
	}
}

func TestChunkedLoadEqualsWholeFileLoad(t *testing.T) {
	whole, err := Read("m", FormatCSV, strings.NewReader(messyCSV))
	if err != nil {
		t.Fatal(err)
	}
	if whole.NumRows() != 5 {
		t.Fatalf("parsed %d rows, want 5", whole.NumRows())
	}
	if got := whole.Value(1, 2); got != `she said "hi"` {
		t.Fatalf("escaped quotes parsed as %q", got)
	}
	if got := whole.Value(2, 0); got != "" {
		t.Fatalf("empty field parsed as %q", got)
	}
	// Interning must collapse the repeated row 0 / row 3 values.
	if whole.ValueID(0, 1) != whole.ValueID(3, 1) {
		t.Fatal("repeated value not interned to one ID")
	}
	for _, chunk := range []int{1, 2, 3, 7, 64} {
		src, err := NewCSVSource(strings.NewReader(messyCSV))
		if err != nil {
			t.Fatal(err)
		}
		s := NewStream("m", src)
		for {
			n, err := s.ReadChunk(chunk)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if n != chunk {
				t.Fatalf("full chunk returned %d rows, want %d", n, chunk)
			}
		}
		assertSameDataset(t, whole, s.Dataset())
	}
}

func TestStreamReadAllEqualsReadCSV(t *testing.T) {
	whole, err := Read("m", FormatCSV, strings.NewReader(messyCSV))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(strings.NewReader(messyCSV))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream("m", src)
	if err := s.ReadAll(); err != nil {
		t.Fatal(err)
	}
	assertSameDataset(t, whole, s.Dataset())
	// Draining an exhausted stream keeps returning io.EOF.
	if n, err := s.ReadChunk(10); n != 0 || err != io.EOF {
		t.Fatalf("post-EOF ReadChunk = (%d, %v), want (0, io.EOF)", n, err)
	}
}

func TestStreamRaggedRow(t *testing.T) {
	in := "a,b\n1,2\n3\n5,6\n"
	if _, err := Read("r", FormatCSV, strings.NewReader(in)); err == nil {
		t.Fatal("ragged row must error")
	} else if !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("ragged error should name row 2, got: %v", err)
	}
	src, err := NewCSVSource(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream("r", src)
	n, err := s.ReadChunk(100)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("chunked ragged read = (%d, %v), want parse error", n, err)
	}
	// The row before the ragged one was appended and stays readable.
	if n != 1 || s.Dataset().NumRows() != 1 || s.Dataset().Value(0, 1) != "2" {
		t.Fatalf("rows before the error must be retained: n=%d rows=%d", n, s.Dataset().NumRows())
	}
}

func TestStreamEdgeCases(t *testing.T) {
	if _, err := Read("e", FormatCSV, strings.NewReader("")); err == nil {
		t.Error("empty input must error (no header)")
	}
	if _, err := NewCSVSource(strings.NewReader("")); err == nil {
		t.Error("empty stream must error (no header)")
	}
	if _, err := Read("e", FormatCSV, strings.NewReader("a,\"b\n")); err == nil {
		t.Error("unterminated quote in header must error")
	}
	d, err := Read("e", FormatCSV, strings.NewReader("a,b\n"))
	if err != nil || d.NumRows() != 0 || d.NumCols() != 2 {
		t.Errorf("header-only CSV: %v rows=%d", err, d.NumRows())
	}
	d, err = Read("e", FormatCSV, strings.NewReader("a,b\r\n1,2\r\n"))
	if err != nil || d.NumRows() != 1 || d.Value(0, 1) != "2" {
		t.Errorf("CRLF CSV: %v", err)
	}
	d, err = Read("e", FormatCSV, strings.NewReader("a,b\n1,2")) // no trailing newline
	if err != nil || d.NumRows() != 1 {
		t.Errorf("missing trailing newline: %v", err)
	}
}

// TestSnapshotAndCloneDuringStreamingAppend loads a CSV chunk by chunk
// while concurrent readers walk Snapshot views and a Clone taken mid-load.
// Run under -race this pins the advertised concurrency contract: snapshots
// are consistent read views of a growing dataset, and clones are fully
// isolated from later appends.
func TestSnapshotAndCloneDuringStreamingAppend(t *testing.T) {
	const rows, chunk = 600, 40
	var sb strings.Builder
	sb.WriteString("a,b,c\n")
	for i := 0; i < rows; i++ {
		// i%17 forces heavy interning overlap across chunks.
		fmt.Fprintf(&sb, "a%d,b%d,c%d\n", i%17, i%5, i)
	}

	src, err := NewCSVSource(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream("stream", src)
	var wg sync.WaitGroup
	snaps := make(chan *Dataset, rows/chunk+1)
	errc := make(chan error, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for snap := range snaps {
				for i := 0; i < snap.NumRows(); i++ {
					if got, want := snap.Value(i, 0), fmt.Sprintf("a%d", i%17); got != want {
						errc <- fmt.Errorf("snapshot cell (%d,0) = %q, want %q", i, got, want)
						return
					}
					if id := snap.ValueID(i, 2); snap.DictValue(2, id) != fmt.Sprintf("c%d", i) {
						errc <- fmt.Errorf("snapshot ID round-trip broken at row %d", i)
						return
					}
				}
				if _, ok := snap.LookupID(0, "a0"); !ok && snap.NumRows() > 0 {
					errc <- fmt.Errorf("snapshot lost interned value")
					return
				}
			}
		}()
	}

	var clone *Dataset
	cloneRows := 0
	loaded := 0
	for {
		n, err := s.ReadChunk(chunk)
		loaded += n
		if loaded > 0 {
			snaps <- s.Dataset().Snapshot()
		}
		if clone == nil && loaded >= rows/2 {
			clone = s.Dataset().Clone()
			cloneRows = clone.NumRows()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(snaps)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if loaded != rows || s.Dataset().NumRows() != rows {
		t.Fatalf("loaded %d rows, want %d", loaded, rows)
	}
	// Clone isolation: the mid-load clone never saw the later appends, and
	// mutating it does not affect the original.
	if clone.NumRows() != cloneRows || clone.NumRows() >= rows {
		t.Fatalf("clone grew after Clone(): %d rows", clone.NumRows())
	}
	clone.SetValue(0, 0, "MUTATED")
	if s.Dataset().Value(0, 0) == "MUTATED" {
		t.Fatal("mutating the clone leaked into the original")
	}
}
