package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// csvSource decodes a headered CSV body as a RowSource.
type csvSource struct {
	cr     *csv.Reader
	header []string
	row    int // data rows delivered, for error positions
}

// NewCSVSource opens a CSV RowSource: the header row is read immediately,
// data rows are delivered by Next. Every malformed input — missing header,
// ragged rows, quoting errors — comes back as an error, not a panic.
func NewCSVSource(r io.Reader) (RowSource, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	// The record slice is reused across rows; Next copies the slice header
	// (the field strings themselves are freshly allocated by encoding/csv),
	// so nothing aliases the reader's state.
	cr.ReuseRecord = true
	hdr, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("table: csv has no header row")
	}
	if err != nil {
		return nil, fmt.Errorf("table: reading csv header: %w", err)
	}
	return &csvSource{cr: cr, header: append([]string(nil), hdr...)}, nil
}

func (c *csvSource) Header() []string { return c.header }

func (c *csvSource) Next(max int) ([][]string, error) {
	var rows [][]string
	for len(rows) < max {
		rec, err := c.cr.Read()
		if err == io.EOF {
			return rows, io.EOF
		}
		if err != nil {
			return rows, fmt.Errorf("table: reading csv: %w", err)
		}
		if len(rec) != len(c.header) {
			return rows, fmt.Errorf("table: row %d has %d fields, want %d",
				c.row+1, len(rec), len(c.header))
		}
		rows = append(rows, append([]string(nil), rec...))
		c.row++
	}
	return rows, nil
}

// NewCSVStream starts a streaming CSV parse: it reads the header row
// immediately and leaves the data rows for ReadChunk/ReadAll. The dataset
// name is taken from the caller, not the file.
func NewCSVStream(name string, r io.Reader) (*Stream, error) {
	src, err := NewCSVSource(r)
	if err != nil {
		return nil, err
	}
	return NewStream(name, src), nil
}

// ReadCSVFile loads a dataset from a CSV file path.
func ReadCSVFile(name, path string) (*Dataset, error) {
	return ReadFile(name, path, FormatCSV)
}

// WriteCSV serializes the dataset as CSV with a header row. Records that
// encoding/csv would render as a blank line (a single empty field — blank
// lines are skipped on read, silently dropping the record) are written as
// an explicitly quoted empty string, so WriteCSV output always parses back
// to the same cells.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	writeRecord := func(record []string) error {
		if len(record) == 1 && record[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			_, err := io.WriteString(w, "\"\"\n")
			return err
		}
		return cw.Write(record)
	}
	if err := writeRecord(d.Attrs); err != nil {
		return err
	}
	record := make([]string, d.NumCols())
	for i := 0; i < d.NumRows(); i++ {
		for j := range record {
			record[j] = d.Value(i, j)
		}
		if err := writeRecord(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the dataset to a CSV file path.
func (d *Dataset) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return d.WriteCSV(f)
}
