package table

import (
	"fmt"
	"io"
	"mime"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// RowSource is the format-agnostic streaming ingest abstraction: a header
// (the column names, fixed at construction) plus chunked row delivery.
// CSV and NDJSON bodies, files, and request streams all arrive through it,
// so every consumer — dataset loading, model scoring, streaming detection —
// shares one decode layer.
//
// Next returns up to max rows (max must be positive) and io.EOF, possibly
// alongside a final short batch, once the input is exhausted. A short batch
// without an error only happens at EOF. Returned rows are freshly allocated
// and safe to retain. Rows already delivered before a decode error stay
// valid; the error describes the first offending row.
type RowSource interface {
	Header() []string
	Next(max int) ([][]string, error)
}

// Ingest format names, as used by the -format CLI flag and the service's
// ?format query parameter.
const (
	FormatCSV    = "csv"
	FormatNDJSON = "ndjson"
)

// NewSource opens a self-describing row source for one of the named
// formats: the header comes from the input itself (CSV header row; NDJSON
// first line).
func NewSource(format string, r io.Reader) (RowSource, error) {
	switch format {
	case FormatCSV:
		return NewCSVSource(r)
	case FormatNDJSON:
		return NewNDJSONSource(r, nil)
	default:
		return nil, fmt.Errorf("table: unknown ingest format %q (want %s or %s)", format, FormatCSV, FormatNDJSON)
	}
}

// FormatForMediaType maps a Content-Type header value to an ingest format.
// The raw header is parsed with mime.ParseMediaType, so parameters like
// "; charset=utf-8" never defeat the match. The second result reports
// whether the media type named a known format; callers typically fall back
// to CSV when it did not.
func FormatForMediaType(contentType string) (string, bool) {
	mt, _, err := mime.ParseMediaType(contentType)
	if err != nil {
		return "", false
	}
	switch mt {
	case "text/csv", "application/csv":
		return FormatCSV, true
	case "application/x-ndjson", "application/ndjson", "application/jsonl", "application/json":
		return FormatNDJSON, true
	default:
		return "", false
	}
}

// FormatForPath auto-detects an ingest format from a file extension:
// .ndjson, .jsonl, and .json select NDJSON, everything else CSV.
func FormatForPath(path string) string {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".ndjson", ".jsonl", ".json":
		return FormatNDJSON
	default:
		return FormatCSV
	}
}

// Stream incrementally loads a RowSource into a columnar Dataset. Unlike a
// ReadAll-style loader it never materializes the full row-oriented record
// set: each delivered row is appended straight into the dataset's
// per-column ID slices and intern-pool dictionaries. Because the pools are
// append-only, value IDs handed out for early chunks stay valid as later
// chunks arrive, so row shards can be cut (SubsetRows, Snapshot) between
// chunks while the load is still in flight.
type Stream struct {
	d   *Dataset
	src RowSource
}

// NewStream starts loading src into a fresh dataset named name, with the
// source's header as the schema. It is NewStreamInto over an empty New
// dataset.
func NewStream(name string, src RowSource) *Stream {
	return &Stream{d: New(name, append([]string(nil), src.Header()...)), src: src}
}

// NewStreamInto starts loading src into the existing dataset d, after its
// rows: values d's dictionaries already hold intern to their IDs, so
// loading into a Derive of a model's dictionary-seeded dataset binds each
// cell as it is decoded. The source header must equal d's schema; map an
// upload header onto it with MapSource first.
func NewStreamInto(d *Dataset, src RowSource) (*Stream, error) {
	if !slices.Equal(src.Header(), d.Attrs) {
		return nil, fmt.Errorf("table: source header %q does not match schema %q", src.Header(), d.Attrs)
	}
	return &Stream{d: d, src: src}, nil
}

// Dataset returns the dataset being loaded. It grows as chunks are read;
// take a Snapshot (or SubsetRows) to hand a stable view to concurrent
// readers while the stream continues.
func (s *Stream) Dataset() *Dataset { return s.d }

// ReadChunk appends up to maxRows data rows and returns the number
// appended. maxRows must be positive: a caller whose computed chunk budget
// reaches zero almost certainly wants "read nothing", and silently draining
// the whole stream instead (the historical maxRows<=0 sentinel) turned that
// arithmetic slip into an unbounded read — use ReadAll when draining is
// what you mean. It returns io.EOF once the input is exhausted and a
// wrapped decode error on malformed rows; rows appended before the error
// remain in the dataset.
func (s *Stream) ReadChunk(maxRows int) (int, error) {
	if maxRows <= 0 {
		return 0, fmt.Errorf("table: ReadChunk needs a positive row budget, got %d (use ReadAll to drain the stream)", maxRows)
	}
	return s.readChunk(maxRows)
}

// streamBatchRows bounds one Next call inside an unbudgeted drain.
const streamBatchRows = 4096

// readChunk is the budgeted read loop; maxRows <= 0 drains to EOF.
func (s *Stream) readChunk(maxRows int) (int, error) {
	appended := 0
	for maxRows <= 0 || appended < maxRows {
		budget := streamBatchRows
		if maxRows > 0 && maxRows-appended < budget {
			budget = maxRows - appended
		}
		rows, err := s.src.Next(budget)
		for _, row := range rows {
			if aerr := s.d.AppendRow(row); aerr != nil {
				return appended, aerr
			}
			appended++
		}
		if err != nil {
			return appended, err
		}
	}
	return appended, nil
}

// ReadAll drains the remaining rows into the dataset. It is the one
// explicit "no budget" entry point; ReadChunk always bounds its read.
func (s *Stream) ReadAll() error {
	_, err := s.readChunk(0)
	if err == io.EOF {
		return nil
	}
	return err
}

// Read parses a dataset from a self-describing body in the named format.
// It is the one-shot form of NewStream: chunked and whole-input loads
// produce identical datasets, including identical dictionary IDs.
func Read(name, format string, r io.Reader) (*Dataset, error) {
	src, err := NewSource(format, r)
	if err != nil {
		return nil, err
	}
	s := NewStream(name, src)
	if err := s.ReadAll(); err != nil {
		return nil, err
	}
	return s.d, nil
}

// ReadFile loads a dataset from a file path. An empty format auto-detects
// from the extension (FormatForPath).
func ReadFile(name, path, format string) (*Dataset, error) {
	if format == "" {
		format = FormatForPath(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(name, format, f)
}
