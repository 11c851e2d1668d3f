package table

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// NDJSON ingest: one JSON value per line, in either framing —
//
//   - array framing: ["v1","v2",...] with cells in column order;
//   - object framing: {"col1":"v1","col2":"v2",...} keyed by column name.
//
// Non-string scalars keep their JSON text as the cell value; null becomes
// the empty string; nested arrays/objects are rejected (cells are scalars).
// Blank lines are skipped. Lines are capped at ndjsonMaxLine bytes.
//
// A self-describing source (schema == nil) takes its header from the first
// non-blank line: a JSON array of strings is the header row (mirroring the
// CSV header), while an object contributes its keys — in document order —
// as the header and is itself the first data row. Every later line must
// cover exactly that header. A schema-bound source (schema != nil) treats
// every line as data in the given column order; objects must supply every
// schema column and nothing else.

// NDJSON scanner limits: lines start at 64 KiB and may grow to 4 MiB.
const (
	ndjsonInitLine = 64 << 10
	ndjsonMaxLine  = 4 << 20
)

// ndjsonSource decodes an NDJSON body as a RowSource.
type ndjsonSource struct {
	sc     *bufio.Scanner
	header []string
	bound  bool       // schema-bound: every line is data
	first  [][]string // pending data row decoded during header discovery
	line   int        // physical line number, for error positions
}

// NewNDJSONSource opens an NDJSON RowSource. With a nil schema the source
// is self-describing (the first line defines the header, see the package
// comment above); with a schema every line is a data row in schema order.
// Every malformed input comes back as an error, not a panic.
func NewNDJSONSource(r io.Reader, schema []string) (RowSource, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, ndjsonInitLine), ndjsonMaxLine)
	n := &ndjsonSource{sc: sc}
	if schema != nil {
		n.header = append([]string(nil), schema...)
		n.bound = true
		return n, nil
	}
	raw, err := n.scanLine()
	if err == io.EOF {
		return nil, fmt.Errorf("table: ndjson has no header line")
	}
	if err != nil {
		return nil, fmt.Errorf("table: reading ndjson header: %w", err)
	}
	switch raw[0] {
	case '[':
		var cells []json.RawMessage
		if err := json.Unmarshal(raw, &cells); err != nil {
			return nil, fmt.Errorf("table: ndjson line %d: %v", n.line, err)
		}
		hdr := make([]string, len(cells))
		for i, c := range cells {
			t := trimSpaceBytes(c)
			if len(t) == 0 || t[0] != '"' {
				return nil, fmt.Errorf("table: ndjson line %d: header cell %d must be a JSON string", n.line, i)
			}
			if err := json.Unmarshal(t, &hdr[i]); err != nil {
				return nil, fmt.Errorf("table: ndjson line %d: %v", n.line, err)
			}
		}
		n.header = hdr
	case '{':
		keys, row, err := decodeObjectOrdered(raw)
		if err != nil {
			return nil, fmt.Errorf("table: ndjson line %d: %v", n.line, err)
		}
		n.header = keys
		n.first = [][]string{row}
	default:
		return nil, fmt.Errorf("table: ndjson line %d: must be a JSON array or object, got %q", n.line, raw[0])
	}
	return n, nil
}

func (n *ndjsonSource) Header() []string { return n.header }

// scanLine advances to the next non-blank line, returning its trimmed
// bytes (valid until the next scan) or io.EOF.
func (n *ndjsonSource) scanLine() ([]byte, error) {
	for n.sc.Scan() {
		n.line++
		raw := trimSpaceBytes(n.sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		return raw, nil
	}
	if err := n.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

func (n *ndjsonSource) Next(max int) ([][]string, error) {
	var rows [][]string
	if len(n.first) > 0 && max > 0 {
		rows = n.first
		n.first = nil
	}
	for len(rows) < max {
		raw, err := n.scanLine()
		if err == io.EOF {
			return rows, io.EOF
		}
		if err != nil {
			return rows, err
		}
		row, err := n.decodeLine(raw)
		if err != nil {
			return rows, fmt.Errorf("table: ndjson line %d: %v", n.line, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// decodeLine decodes one data line against the header.
func (n *ndjsonSource) decodeLine(raw []byte) ([]string, error) {
	switch raw[0] {
	case '[':
		var cells []json.RawMessage
		if err := json.Unmarshal(raw, &cells); err != nil {
			return nil, err
		}
		if len(cells) != len(n.header) {
			return nil, fmt.Errorf("array has %d cells, want %d", len(cells), len(n.header))
		}
		row := make([]string, len(cells))
		for i, c := range cells {
			v, err := jsonCell(c)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		return row, nil
	case '{':
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(raw, &obj); err != nil {
			return nil, err
		}
		row := make([]string, len(n.header))
		for i, a := range n.header {
			c, ok := obj[a]
			if !ok {
				return nil, fmt.Errorf("object is missing attribute %q", a)
			}
			v, err := jsonCell(c)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if len(obj) > len(n.header) {
			for k := range obj {
				known := false
				for _, a := range n.header {
					if k == a {
						known = true
						break
					}
				}
				if !known {
					return nil, fmt.Errorf("object has unknown attribute %q", k)
				}
			}
		}
		return row, nil
	default:
		return nil, fmt.Errorf("line must be a JSON array or object, got %q", raw[0])
	}
}

// decodeObjectOrdered decodes one JSON object preserving key order — the
// header-discovery path, where document order becomes column order.
// Duplicate keys are rejected (a map decode would silently collapse them).
func decodeObjectOrdered(raw []byte) (keys []string, row []string, err error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	tok, err := dec.Token()
	if err != nil {
		return nil, nil, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, nil, fmt.Errorf("expected a JSON object")
	}
	seen := make(map[string]bool)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, nil, err
		}
		k, ok := tok.(string)
		if !ok {
			return nil, nil, fmt.Errorf("bad object key %v", tok)
		}
		if seen[k] {
			return nil, nil, fmt.Errorf("object repeats attribute %q", k)
		}
		seen[k] = true
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, nil, err
		}
		cell, err := jsonCell(v)
		if err != nil {
			return nil, nil, err
		}
		keys = append(keys, k)
		row = append(row, cell)
	}
	if _, err := dec.Token(); err != nil { // consume the closing '}'
		return nil, nil, err
	}
	if len(keys) == 0 {
		return nil, nil, fmt.Errorf("header object has no attributes")
	}
	return keys, row, nil
}

// jsonCell renders one JSON scalar as its cell string.
func jsonCell(raw json.RawMessage) (string, error) {
	t := trimSpaceBytes(raw)
	if len(t) == 0 {
		return "", fmt.Errorf("empty cell value")
	}
	switch t[0] {
	case '"':
		var s string
		if err := json.Unmarshal(t, &s); err != nil {
			return "", err
		}
		return s, nil
	case '[', '{':
		return "", fmt.Errorf("cell value must be a scalar, got %q", t[0])
	default:
		if string(t) == "null" {
			return "", nil
		}
		return string(t), nil // numbers and booleans keep their JSON text
	}
}

func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r' || b[0] == '\n') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r' || b[len(b)-1] == '\n') {
		b = b[:len(b)-1]
	}
	return b
}
