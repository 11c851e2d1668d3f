// Package table provides the tabular dataset model used throughout the
// ZeroED reproduction: a dataset is a named relation with a flat string
// schema and string-valued cells, matching the representation used by the
// paper (Section II): D = {t1..tN} over Attrs = {a1..aM}, with D[i,j]
// denoting the cell value of attribute aj in tuple ti.
//
// Storage is columnar and dictionary-encoded: each column holds a slice of
// uint32 value IDs plus an append-only intern pool (`dict`) of the distinct
// strings ever written to that column. Equal values share one dict entry,
// so per-cell work downstream (frequencies, embeddings, criteria bits) can
// be memoized per unique value ID instead of per cell, and cell comparisons
// reduce to integer comparisons within a column. The row-oriented API
// (Value, Row, AppendRow, ...) is preserved on top; the ID-level
// accessors (ValueID, DictSize, DictValue, ColumnIDs, ...) expose the
// encoded representation to hot paths.
package table

import (
	"fmt"
	"maps"
	"strings"
)

// column is one dictionary-encoded attribute: ids[i] indexes into dict,
// and base plus index are the reverse mapping used for interning. base is
// a frozen index of a dictionary prefix (NewFromDicts builds it), shared by
// every dataset derived from that one and never written; index is this
// dataset's own overlay of the values interned past it. The dict is
// append-only: overwriting a cell never removes the old value's entry, so
// IDs handed out earlier stay valid for the dataset's lifetime.
type column struct {
	ids   []uint32
	dict  []string
	base  map[string]uint32
	index map[string]uint32
}

// lookup returns the ID of v, checking the shared base before the overlay.
func (c *column) lookup(v string) (uint32, bool) {
	if id, ok := c.base[v]; ok {
		return id, true
	}
	id, ok := c.index[v]
	return id, ok
}

// intern returns the ID for v, adding it to the pool on first sight. The
// pooled copy is cloned so a dict entry never pins the caller's backing
// buffer (streamed CSV records keep whole lines alive otherwise).
func (c *column) intern(v string) uint32 {
	if id, ok := c.lookup(v); ok {
		return id
	}
	v = strings.Clone(v)
	id := uint32(len(c.dict))
	c.dict = append(c.dict, v)
	if c.index == nil {
		c.index = make(map[string]uint32)
	}
	c.index[v] = id
	return id
}

// clone copies the column; the clone's pool evolves independently. Dict
// entries are never rewritten, so the dict is shared capacity-clamped (the
// clone's first new value reallocates it) and the frozen base is shared;
// only the row IDs and the overlay index are copied.
func (c *column) clone() column {
	return column{
		ids:   append([]uint32(nil), c.ids...),
		dict:  c.dict[:len(c.dict):len(c.dict)],
		base:  c.base,
		index: maps.Clone(c.index),
	}
}

// Dataset is a dirty or clean relational table. All values are strings;
// NULLs are represented as empty strings, following the paper's
// serialization convention.
type Dataset struct {
	Name  string
	Attrs []string

	cols  []column
	nrows int
	// origin is the dataset this one was derived from (Derive), whose value
	// IDs it shares; nil otherwise.
	origin *Dataset
}

// New creates an empty dataset with the given schema.
func New(name string, attrs []string) *Dataset {
	return NewWithCapacity(name, attrs, 0)
}

// NewWithCapacity creates an empty dataset preallocated for the given row
// count, which bulk loaders use to avoid repeated column growth.
func NewWithCapacity(name string, attrs []string, rows int) *Dataset {
	d := &Dataset{Name: name, Attrs: attrs, cols: make([]column, len(attrs))}
	if rows > 0 {
		for j := range d.cols {
			d.cols[j].ids = make([]uint32, 0, rows)
		}
	}
	return d
}

// NewFromDicts creates an empty dataset whose per-column intern pools are
// pre-seeded with the given dictionaries: value ID id of column j is
// dicts[j][id], exactly as in the dataset the dictionaries were captured
// from. Each dictionary is validated and indexed once, into the column's
// frozen base; the dict slices are reused with their capacity clamped, so
// neither that index nor the caller's backing arrays are ever written. A
// fitted model builds one such dataset when it is fitted or loaded, and
// each scoring call binds a Derive of it — seen values intern to their
// fit-time IDs, unseen values to fresh IDs past the seed — at O(columns)
// per call rather than O(dictionary).
//
// A dictionary with duplicate entries or more than MaxUint32 values cannot
// have come from an intern pool and is rejected.
func NewFromDicts(name string, attrs []string, dicts [][]string) (*Dataset, error) {
	if len(dicts) != len(attrs) {
		return nil, fmt.Errorf("table: %d dictionaries for %d attributes", len(dicts), len(attrs))
	}
	d := &Dataset{Name: name, Attrs: attrs, cols: make([]column, len(attrs))}
	for j, dict := range dicts {
		if len(dict) > 1<<32-1 {
			return nil, fmt.Errorf("table: column %d dictionary has %d entries, exceeding the uint32 ID space", j, len(dict))
		}
		base := make(map[string]uint32, len(dict))
		for id, v := range dict {
			if _, dup := base[v]; dup {
				return nil, fmt.Errorf("table: column %d dictionary has duplicate entry %q", j, v)
			}
			base[v] = uint32(id)
		}
		d.cols[j] = column{dict: dict[:len(dict):len(dict)], base: base}
	}
	return d, nil
}

// Derive returns an empty dataset named name over d's schema and
// dictionaries: rows appended to it intern values d has seen to d's IDs and
// unseen values to fresh IDs past d's pool, without touching d. It shares
// d's frozen base index and capacity-clamped dict and copies only d's
// overlay, so deriving from a rows-free NewFromDicts dataset costs
// O(columns) however large the dictionaries are. Safe to call
// concurrently on a d nobody appends to. The result records d as its
// origin (DerivedFrom): while d is never appended to, every ID below
// d.DictSize(j) means the same value in d and in each dataset derived
// from it.
func (d *Dataset) Derive(name string) *Dataset {
	c := &Dataset{Name: name, Attrs: d.Attrs, cols: make([]column, len(d.cols)), origin: d}
	for j := range d.cols {
		src := &d.cols[j]
		c.cols[j] = column{dict: src.dict[:len(src.dict):len(src.dict)], base: src.base, index: maps.Clone(src.index)}
	}
	return c
}

// DerivedFrom reports whether d was made by origin.Derive, so that d's
// value IDs below origin's dictionary sizes are origin's own. It is an
// identity check, O(1), never a comparison of contents.
func (d *Dataset) DerivedFrom(origin *Dataset) bool {
	return origin != nil && d.origin == origin
}

// NumRows returns the number of tuples.
func (d *Dataset) NumRows() int { return d.nrows }

// NumCols returns the number of attributes.
func (d *Dataset) NumCols() int { return len(d.Attrs) }

// NumCells returns the total number of cells.
func (d *Dataset) NumCells() int { return d.nrows * len(d.Attrs) }

// Value returns the cell value of attribute col in tuple row.
func (d *Dataset) Value(row, col int) string {
	c := &d.cols[col]
	return c.dict[c.ids[row]]
}

// SetValue overwrites a single cell, interning the value if it is new to
// the column. Existing IDs are never invalidated.
func (d *Dataset) SetValue(row, col int, v string) {
	c := &d.cols[col]
	c.ids[row] = c.intern(v)
}

// ValueID returns the dictionary ID of the cell value of attribute col in
// tuple row. IDs are stable for the dataset's lifetime and comparable only
// within one column.
func (d *Dataset) ValueID(row, col int) uint32 { return d.cols[col].ids[row] }

// DictSize returns the number of distinct values ever written to the
// column — the size of its intern pool. Per-value-ID memo tables are sized
// by this.
func (d *Dataset) DictSize(col int) int { return len(d.cols[col].dict) }

// DictValue returns the string for a value ID of the column.
func (d *Dataset) DictValue(col int, id uint32) string { return d.cols[col].dict[id] }

// Dict returns the column's intern pool, indexed by value ID. The slice is
// shared with the dataset and must not be mutated; it may grow (never
// shrink) as new values are written.
func (d *Dataset) Dict(col int) []string { return d.cols[col].dict }

// LookupID returns the ID of v in the column's pool, if v has ever been
// written to the column.
func (d *Dataset) LookupID(col int, v string) (uint32, bool) {
	return d.cols[col].lookup(v)
}

// ColumnIDs returns the column's value IDs, indexed by row. The slice is
// shared with the dataset and must not be mutated.
func (d *Dataset) ColumnIDs(col int) []uint32 { return d.cols[col].ids }

// DistinctCount returns the number of distinct values currently present in
// the column. Unlike DictSize it ignores pool entries that were
// overwritten away, so it matches the semantics of counting a column's
// value set.
func (d *Dataset) DistinctCount(col int) int {
	c := &d.cols[col]
	seen := make([]bool, len(c.dict))
	n := 0
	for _, id := range c.ids {
		if !seen[id] {
			seen[id] = true
			n++
		}
	}
	return n
}

// AppendRow adds a tuple. A row whose arity does not match the schema is
// rejected with an error and the dataset is left unchanged; ingestion paths
// that accept untrusted input (CSV streams, service uploads) propagate it
// as a validation failure. Code sites where the arity is a structural
// invariant use MustAppendRow.
func (d *Dataset) AppendRow(row []string) error {
	if len(row) != len(d.Attrs) {
		return fmt.Errorf("table: row arity %d does not match schema arity %d", len(row), len(d.Attrs))
	}
	for j, v := range row {
		c := &d.cols[j]
		c.ids = append(c.ids, c.intern(v))
	}
	d.nrows++
	return nil
}

// MustAppendRow is AppendRow for call sites where the row arity is
// guaranteed by construction (generators, test fixtures, rows copied from a
// same-schema dataset). It panics on a mismatch, which at such a site is
// always a programming error.
func (d *Dataset) MustAppendRow(row []string) {
	if err := d.AppendRow(row); err != nil {
		panic(err)
	}
}

// AppendFrom appends the first n rows of src, which must have d's arity,
// as if each were passed to AppendRow in order. When d and src derive from
// the same origin, a value ID below the origin's dictionary size means the
// same value in both and is copied as it is; only values past it are
// interned by string. Otherwise every cell is interned by string.
func (d *Dataset) AppendFrom(src *Dataset, n int) error {
	if len(src.Attrs) != len(d.Attrs) {
		return fmt.Errorf("table: source arity %d does not match schema arity %d", len(src.Attrs), len(d.Attrs))
	}
	if n < 0 || n > src.nrows {
		return fmt.Errorf("table: cannot append %d of %d source rows", n, src.nrows)
	}
	shared := d.origin != nil && d.origin == src.origin
	for j := range d.cols {
		c, s := &d.cols[j], &src.cols[j]
		var prefix uint32
		if shared {
			prefix = uint32(len(d.origin.cols[j].dict))
		}
		for _, id := range s.ids[:n] {
			if id >= prefix {
				id = c.intern(s.dict[id])
			}
			c.ids = append(c.ids, id)
		}
	}
	d.nrows += n
	return nil
}

// ColIndex returns the index of the named attribute, or -1 if absent.
func (d *Dataset) ColIndex(attr string) int {
	for i, a := range d.Attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// Column returns a copy of all values in the given column.
func (d *Dataset) Column(col int) []string {
	c := &d.cols[col]
	out := make([]string, len(c.ids))
	for i, id := range c.ids {
		out[i] = c.dict[id]
	}
	return out
}

// Clone copies the dataset. Mutating the clone never affects the
// original, which matters when injecting errors into a clean ground truth.
// Cloning a Derive of a large NewFromDicts dataset costs O(rows + values
// interned past it), not O(dictionary); see column.clone.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{Name: d.Name, Attrs: append([]string(nil), d.Attrs...), nrows: d.nrows}
	c.cols = make([]column, len(d.cols))
	for j := range d.cols {
		c.cols[j] = d.cols[j].clone()
	}
	return c
}

// Snapshot returns a read-only view of the dataset's current rows that
// stays consistent while the original keeps growing through AppendRow (the
// streaming-load path): the view shares the column ID and dict storage but
// fixes its own lengths, and appends only ever write past those lengths,
// so readers of the snapshot race with nothing. The view shares the frozen
// base index and copies only the overlay — the values interned past the
// base — so a snapshot of a Derive'd dataset costs O(columns + unseen
// values), not O(dictionary).
//
// Contract: Snapshot reads the live column storage, so it must be called
// from the appending goroutine or by a caller holding the lock the
// appender holds; after that the view may be handed to any goroutine. The
// returned view must be treated as read-only, and overwrites of existing
// cells (SetValue) on the original are NOT isolated — use Clone when the
// original will be mutated in place.
func (d *Dataset) Snapshot() *Dataset {
	c := &Dataset{Name: d.Name, Attrs: d.Attrs, nrows: d.nrows}
	c.cols = make([]column, len(d.cols))
	for j := range d.cols {
		src := &d.cols[j]
		c.cols[j] = column{
			ids:   src.ids[:len(src.ids):len(src.ids)],
			dict:  src.dict[:len(src.dict):len(src.dict)],
			base:  src.base,
			index: maps.Clone(src.index),
		}
	}
	return c
}

// SubsetRows returns a new dataset containing exactly the given rows, in
// the given order. Row indices may repeat; they must be in range.
func (d *Dataset) SubsetRows(rows []int) *Dataset {
	c := &Dataset{Name: d.Name, Attrs: append([]string(nil), d.Attrs...), nrows: len(rows)}
	c.cols = make([]column, len(d.cols))
	for j := range d.cols {
		src := &d.cols[j]
		ids := make([]uint32, len(rows))
		for i, r := range rows {
			ids[i] = src.ids[r]
		}
		c.cols[j] = column{
			ids:   ids,
			dict:  append([]string(nil), src.dict...),
			base:  src.base,
			index: maps.Clone(src.index),
		}
	}
	return c
}

// Row returns the i-th tuple as a freshly allocated value slice.
func (d *Dataset) Row(i int) []string {
	out := make([]string, len(d.Attrs))
	for j := range d.cols {
		c := &d.cols[j]
		out[j] = c.dict[c.ids[i]]
	}
	return out
}

// serializeTuple renders tuple i as the attribute-value pair string used in
// LLM prompts: "a1: v1, a2: v2, ...". NULLs appear as empty strings.
func (d *Dataset) serializeTuple(b *strings.Builder, i int) {
	for j, a := range d.Attrs {
		if j > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a)
		b.WriteString(": ")
		c := &d.cols[j]
		b.WriteString(c.dict[c.ids[i]])
	}
}

// SerializeRows renders the given tuples one per line, for prompt bodies.
func (d *Dataset) SerializeRows(rows []int) string {
	var b strings.Builder
	for _, i := range rows {
		d.serializeTuple(&b, i)
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrorMask compares a dirty dataset against its ground truth and returns
// a boolean matrix where true marks an erroneous cell (D[i,j] != D*[i,j]),
// the paper's definition of a data error.
func ErrorMask(dirty, clean *Dataset) ([][]bool, error) {
	if dirty.NumRows() != clean.NumRows() || dirty.NumCols() != clean.NumCols() {
		return nil, fmt.Errorf("table: shape mismatch dirty %dx%d vs clean %dx%d",
			dirty.NumRows(), dirty.NumCols(), clean.NumRows(), clean.NumCols())
	}
	mask := make([][]bool, dirty.NumRows())
	for i := range mask {
		mask[i] = make([]bool, dirty.NumCols())
	}
	// Column-at-a-time comparison over IDs: resolve each dirty pool entry
	// to the clean pool once, then compare integers per cell.
	for j := 0; j < dirty.NumCols(); j++ {
		dc, cc := &dirty.cols[j], &clean.cols[j]
		// sameID[id] is the clean-pool ID holding the identical string, or
		// -1 when the dirty value never occurs in the clean pool.
		sameID := make([]int64, len(dc.dict))
		for id, v := range dc.dict {
			if cid, ok := cc.lookup(v); ok {
				sameID[id] = int64(cid)
			} else {
				sameID[id] = -1
			}
		}
		for i, id := range dc.ids {
			mask[i][j] = sameID[id] != int64(cc.ids[i])
		}
	}
	return mask, nil
}

// ErrorRate returns the fraction of cells that differ from ground truth.
func ErrorRate(dirty, clean *Dataset) (float64, error) {
	mask, err := ErrorMask(dirty, clean)
	if err != nil {
		return 0, err
	}
	n, total := 0, 0
	for i := range mask {
		for j := range mask[i] {
			total++
			if mask[i][j] {
				n++
			}
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(n) / float64(total), nil
}
