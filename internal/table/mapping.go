package table

import (
	"fmt"
	"strings"
)

// Schema mapping: real-world uploads drift — columns arrive permuted, or
// with extra columns a model was never fitted on. MapColumns projects an
// upload header that is a superset and/or permutation of a model's schema
// onto that schema, so score/stream/repair requests bind to the model's
// dictionary-seeded dataset (a Derive of its NewFromDicts dataset) without
// demanding byte-equal headers. Missing schema columns are a typed error
// (*MissingColumnsError); extra upload columns are dropped and reported in
// ColumnMapping.Dropped.

// MissingColumnsError reports schema columns the upload header lacks.
type MissingColumnsError struct {
	Missing []string // in schema order
}

func (e *MissingColumnsError) Error() string {
	return fmt.Sprintf("table: upload is missing schema columns: %s", strings.Join(e.Missing, ", "))
}

// ColumnMapping is a resolved header→schema projection.
type ColumnMapping struct {
	// Attrs is the target schema, in schema order.
	Attrs []string
	// Src[j] is the upload-header index supplying schema column j.
	Src []int
	// Dropped lists upload columns absent from the schema, in header order.
	Dropped []string

	width int // upload header arity, for row checks
}

// MapColumns resolves how the upload header maps onto the schema. The
// header must contain every schema column exactly once; headers (or
// schemas) that repeat a name are rejected as ambiguous. A header equal to
// the schema yields the identity mapping.
func MapColumns(schema, header []string) (*ColumnMapping, error) {
	pos := make(map[string]int, len(header))
	for i, h := range header {
		if _, dup := pos[h]; dup {
			return nil, fmt.Errorf("table: upload header repeats column %q", h)
		}
		pos[h] = i
	}
	m := &ColumnMapping{
		Attrs: append([]string(nil), schema...),
		Src:   make([]int, len(schema)),
		width: len(header),
	}
	used := make([]bool, len(header))
	var missing []string
	seen := make(map[string]bool, len(schema))
	for j, a := range schema {
		if seen[a] {
			return nil, fmt.Errorf("table: schema repeats column %q", a)
		}
		seen[a] = true
		i, ok := pos[a]
		if !ok {
			missing = append(missing, a)
			continue
		}
		m.Src[j] = i
		used[i] = true
	}
	if len(missing) > 0 {
		return nil, &MissingColumnsError{Missing: missing}
	}
	for i, h := range header {
		if !used[i] {
			m.Dropped = append(m.Dropped, h)
		}
	}
	return m, nil
}

// Identity reports whether the mapping is a no-op: the header equals the
// schema in order, with nothing dropped.
func (m *ColumnMapping) Identity() bool {
	if m.width != len(m.Attrs) || len(m.Dropped) > 0 {
		return false
	}
	for j, i := range m.Src {
		if i != j {
			return false
		}
	}
	return true
}

// Apply projects one upload row (in header order) onto the schema.
func (m *ColumnMapping) Apply(row []string) ([]string, error) {
	if len(row) != m.width {
		return nil, fmt.Errorf("table: row has %d fields, header has %d", len(row), m.width)
	}
	out := make([]string, len(m.Src))
	for j, i := range m.Src {
		out[j] = row[i]
	}
	return out, nil
}

// MapSource wraps src so its rows arrive projected onto the schema. When
// the source header already equals the schema the source is returned
// untouched (the mapping still reports Identity and Dropped).
func MapSource(schema []string, src RowSource) (RowSource, *ColumnMapping, error) {
	m, err := MapColumns(schema, src.Header())
	if err != nil {
		return nil, nil, err
	}
	if m.Identity() {
		return src, m, nil
	}
	return &mappedSource{src: src, m: m}, m, nil
}

type mappedSource struct {
	src RowSource
	m   *ColumnMapping
}

func (s *mappedSource) Header() []string { return s.m.Attrs }

func (s *mappedSource) Next(max int) ([][]string, error) {
	rows, err := s.src.Next(max)
	for i, row := range rows {
		mapped, merr := s.m.Apply(row)
		if merr != nil {
			return rows[:i], merr
		}
		rows[i] = mapped
	}
	return rows, err
}

// Project returns a dataset view of d whose columns are reordered (and
// extras dropped) to match the schema. The identity mapping returns d
// itself; otherwise the kept columns are deep-copied, so the projection's
// pools evolve independently of d's. Value IDs within each kept column are
// preserved.
func Project(d *Dataset, schema []string) (*Dataset, *ColumnMapping, error) {
	m, err := MapColumns(schema, d.Attrs)
	if err != nil {
		return nil, nil, err
	}
	if m.Identity() {
		return d, m, nil
	}
	out := &Dataset{
		Name:  d.Name,
		Attrs: append([]string(nil), schema...),
		cols:  make([]column, len(schema)),
		nrows: d.nrows,
	}
	for j, i := range m.Src {
		out.cols[j] = d.cols[i].clone()
	}
	return out, m, nil
}
