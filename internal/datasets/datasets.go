// Package datasets provides seeded synthetic generators for the seven
// evaluation datasets of the paper's Table II: Hospital, Flights, Beers,
// Rayyan, Billionaire, Movies, and Tax. The real benchmark files are not
// redistributable offline, so each generator synthesizes a clean ground
// truth with the same schema flavor (attribute count, categorical/numeric
// mix, functional dependencies) and injects the five error types via
// internal/errgen at the per-type rates Table II reports. Each benchmark
// also carries the knowledge-base slice that KATARA and the simulated
// LLM's world knowledge consume (empty for the datasets where the paper
// notes KATARA finds no relevant KB).
package datasets

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/errgen"
	"repro/internal/knowledge"
	"repro/internal/table"
)

// Bench bundles one benchmark: dirty input, clean ground truth, the
// injection log, world knowledge, and the FD pairs used for injection.
type Bench struct {
	Name    string
	Clean   *table.Dataset
	Dirty   *table.Dataset
	Log     []errgen.Injection
	KB      *knowledge.Base
	FDPairs [][2]int
}

// ErrorRate returns the realized cell error rate of the benchmark, or an
// error when dirty and clean have drifted out of shape (possible once a
// Bench is assembled from external files rather than a generator).
func (b *Bench) ErrorRate() (float64, error) {
	r, err := table.ErrorRate(b.Dirty, b.Clean)
	if err != nil {
		return 0, fmt.Errorf("datasets: %s: %w", b.Name, err)
	}
	return r, nil
}

// Mask returns the ground-truth error mask, or an error on a dirty/clean
// shape mismatch.
func (b *Bench) Mask() ([][]bool, error) {
	m, err := table.ErrorMask(b.Dirty, b.Clean)
	if err != nil {
		return nil, fmt.Errorf("datasets: %s: %w", b.Name, err)
	}
	return m, nil
}

// Generator builds a benchmark with n tuples and a seed. n <= 0 selects
// the dataset's Table II default size.
type Generator func(n int, seed int64) *Bench

// Registry maps dataset names to generators, in Table II order.
func Registry() []struct {
	Name string
	Gen  Generator
} {
	return []struct {
		Name string
		Gen  Generator
	}{
		{"Hospital", Hospital},
		{"Flights", Flights},
		{"Beers", Beers},
		{"Rayyan", Rayyan},
		{"Billionaire", Billionaire},
		{"Movies", Movies},
		{"Tax", Tax},
	}
}

// ByName returns the generator for a dataset name (case-sensitive) or nil.
func ByName(name string) Generator {
	for _, e := range Registry() {
		if e.Name == name {
			return e.Gen
		}
	}
	return nil
}

// Names lists the registered dataset names.
func Names() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.Name)
	}
	return out
}

// pick returns a seeded random element of xs.
func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// sortedKeys returns map keys sorted, for deterministic iteration.
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sortStrings sorts in place; tiny wrapper to avoid importing sort at every
// generator site.
func sortStrings(xs []string) { sort.Strings(xs) }
