// Package knowledge models external world knowledge: the curated knowledge
// bases the KATARA baseline consults, and the pre-trained world knowledge a
// real LLM brings to per-tuple error detection (the FM_ED baseline). In
// this offline reproduction both are served by the same structure: a set of
// typed entity dictionaries populated by the dataset generators'
// vocabularies. A real LLM "knows" US states, city names, and beer styles;
// here that knowledge is made explicit and injectable, which also lets
// experiments model KATARA's coverage gaps (the paper notes KATARA finds
// nothing on Flights, Beers, and Rayyan for lack of relevant KBs).
package knowledge

import "strings"

// Base is a collection of entity dictionaries keyed by semantic type
// (e.g. "city", "state", "measure"). Lookups are case-insensitive.
type Base struct {
	types map[string]map[string]bool
}

// NewBase creates an empty knowledge base.
func NewBase() *Base {
	return &Base{types: make(map[string]map[string]bool)}
}

// AddEntities registers values under a semantic type.
func (b *Base) AddEntities(typ string, values ...string) {
	set := b.types[typ]
	if set == nil {
		set = make(map[string]bool)
		b.types[typ] = set
	}
	for _, v := range values {
		set[strings.ToLower(strings.TrimSpace(v))] = true
	}
}

// HasType reports whether the base covers a semantic type at all.
func (b *Base) HasType(typ string) bool { return len(b.types[typ]) > 0 }

// Contains reports whether value is a known entity of the given type.
func (b *Base) Contains(typ, value string) bool {
	return b.types[typ][strings.ToLower(strings.TrimSpace(value))]
}

// Types returns the number of registered semantic types.
func (b *Base) Types() int { return len(b.types) }

// CoverageFor reports, for a column of values, the fraction recognized as
// entities of the given type. KATARA uses this to decide whether a KB type
// matches a column.
func (b *Base) CoverageFor(typ string, values []string) float64 {
	set := b.types[typ]
	if len(set) == 0 || len(values) == 0 {
		return 0
	}
	hits := 0
	for _, v := range values {
		if set[strings.ToLower(strings.TrimSpace(v))] {
			hits++
		}
	}
	return float64(hits) / float64(len(values))
}

// BestType returns the semantic type with the highest coverage for the
// column, with its coverage. Returns ("", 0) on an empty base.
func (b *Base) BestType(values []string) (string, float64) {
	bestT, bestC := "", 0.0
	for typ := range b.types {
		if c := b.CoverageFor(typ, values); c > bestC || (c == bestC && typ < bestT && c > 0) {
			bestT, bestC = typ, c
		}
	}
	return bestT, bestC
}
