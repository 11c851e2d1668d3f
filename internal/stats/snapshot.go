package stats

import (
	"fmt"
	"sort"

	"repro/internal/table"
	"repro/internal/text"
)

// FreqSnapshot is the serializable state of a ColumnFrequencies table: the
// row-derived counts that cannot be rebuilt without the original rows. The
// per-value pattern strings and their ID assignment are NOT stored — they
// are a pure function of the column dictionaries and are rebuilt
// deterministically by FreqFromSnapshot, which keeps artifacts small and
// shrinks the surface a corrupt file can reach.
type FreqSnapshot struct {
	// N is the row count the counts were accumulated over.
	N int
	// Counts[j][id] is the occurrence count of value ID id in column j,
	// covering the dictionary prefix that existed at scan time.
	Counts [][]int
	// PatCounts[lvl][j][pid] is the occurrence count of column-local
	// pattern ID pid at generalization level lvl+1. Pattern IDs are
	// assigned in dictionary order, so they align with the rebuilt
	// pattern index for any append-only extension of the dictionary.
	PatCounts [3][][]int
	// CoOccur lists the pairwise co-occurrence tables, one per correlated
	// (j, q) attribute pair, keys sorted for stable serialization.
	CoOccur []CoOccurSnapshot
}

// CoOccurSnapshot is one (j, q) co-occurrence table: Keys[i] packs
// idj<<32|idq and Counts[i] its count. Keys are sorted ascending.
type CoOccurSnapshot struct {
	J, Q   int
	Keys   []uint64
	Counts []int
}

// Snapshot captures the row-derived frequency state. The copies are deep.
func (cf *ColumnFrequencies) Snapshot() *FreqSnapshot {
	s := &FreqSnapshot{N: cf.n, Counts: make([][]int, len(cf.counts))}
	for j := range cf.counts {
		s.Counts[j] = append([]int(nil), cf.counts[j]...)
	}
	for lvl := 0; lvl < 3; lvl++ {
		s.PatCounts[lvl] = make([][]int, len(cf.patCounts[lvl]))
		for j := range cf.patCounts[lvl] {
			s.PatCounts[lvl][j] = append([]int(nil), cf.patCounts[lvl][j]...)
		}
	}
	keys := make([][2]int, 0, len(cf.coOccur))
	for k := range cf.coOccur {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		src := cf.coOccur[k]
		co := CoOccurSnapshot{J: k[0], Q: k[1], Keys: make([]uint64, 0, len(src))}
		for pk := range src {
			co.Keys = append(co.Keys, pk)
		}
		sort.Slice(co.Keys, func(a, b int) bool { return co.Keys[a] < co.Keys[b] })
		co.Counts = make([]int, len(co.Keys))
		for i, pk := range co.Keys {
			co.Counts[i] = src[pk]
		}
		s.CoOccur = append(s.CoOccur, co)
	}
	return s
}

// FreqFromSnapshot reconstructs a ColumnFrequencies over dataset d from a
// snapshot captured against the same (or an append-only extension of the
// same) per-column dictionaries. The pattern tables are rebuilt from d's
// dictionaries in ID order — the same assignment order the original scan
// used. Count vectors keep the snapshot's lengths: value and pattern IDs
// past their end were interned after the original scan and read as zero
// frequency, exactly as they do against the live table, and Snapshot of the
// result gives back the snapshot it was built from. Shape mismatches (a
// snapshot that cannot have come from these dictionaries) are errors.
func FreqFromSnapshot(s *FreqSnapshot, d *table.Dataset) (*ColumnFrequencies, error) {
	if s == nil {
		return nil, fmt.Errorf("stats: nil frequency snapshot")
	}
	m := d.NumCols()
	if len(s.Counts) != m {
		return nil, fmt.Errorf("stats: snapshot has %d count columns, dataset has %d", len(s.Counts), m)
	}
	if s.N < 0 {
		return nil, fmt.Errorf("stats: snapshot has negative row count %d", s.N)
	}
	for lvl := 0; lvl < 3; lvl++ {
		if len(s.PatCounts[lvl]) != m {
			return nil, fmt.Errorf("stats: snapshot has %d L%d pattern columns, dataset has %d", len(s.PatCounts[lvl]), lvl+1, m)
		}
	}
	cf := &ColumnFrequencies{
		d:       d,
		n:       s.N,
		counts:  make([][]int, m),
		coOccur: make(map[[2]int]map[uint64]int),
	}
	for lvl := 0; lvl < 3; lvl++ {
		cf.patOfID[lvl] = make([][]uint32, m)
		cf.patCounts[lvl] = make([][]int, m)
		cf.patIndex[lvl] = make([]map[string]uint32, m)
	}
	for j := 0; j < m; j++ {
		dict := d.Dict(j)
		if len(s.Counts[j]) > len(dict) {
			return nil, fmt.Errorf("stats: snapshot counts cover %d values of column %d, dictionary has %d", len(s.Counts[j]), j, len(dict))
		}
		cf.counts[j] = append([]int(nil), s.Counts[j]...)
		for lvl := 0; lvl < 3; lvl++ {
			cf.patOfID[lvl][j] = make([]uint32, len(dict))
			cf.patIndex[lvl][j] = make(map[string]uint32)
			nPat := 0
			for id, v := range dict {
				p := text.Generalize(v, text.PatternLevel(lvl+1))
				pid, ok := cf.patIndex[lvl][j][p]
				if !ok {
					pid = uint32(nPat)
					cf.patIndex[lvl][j][p] = pid
					nPat++
				}
				cf.patOfID[lvl][j][id] = pid
			}
			if len(s.PatCounts[lvl][j]) > nPat {
				return nil, fmt.Errorf("stats: snapshot has %d L%d patterns for column %d, dictionary yields %d", len(s.PatCounts[lvl][j]), lvl+1, j, nPat)
			}
			cf.patCounts[lvl][j] = append([]int(nil), s.PatCounts[lvl][j]...)
		}
	}
	for _, co := range s.CoOccur {
		if co.J < 0 || co.J >= m || co.Q < 0 || co.Q >= m {
			return nil, fmt.Errorf("stats: snapshot co-occurrence pair (%d,%d) out of column range %d", co.J, co.Q, m)
		}
		if len(co.Keys) != len(co.Counts) {
			return nil, fmt.Errorf("stats: snapshot co-occurrence pair (%d,%d) has %d keys but %d counts", co.J, co.Q, len(co.Keys), len(co.Counts))
		}
		key := [2]int{co.J, co.Q}
		if _, dup := cf.coOccur[key]; dup {
			return nil, fmt.Errorf("stats: snapshot repeats co-occurrence pair (%d,%d)", co.J, co.Q)
		}
		tbl := make(map[uint64]int, len(co.Keys))
		for i, pk := range co.Keys {
			tbl[pk] = co.Counts[i]
		}
		cf.coOccur[key] = tbl
	}
	return cf, nil
}

// Rebind returns a shallow view of the frequency tables bound to another
// dataset. All count tables are shared (they are read-only after
// construction); only the dataset used for string fallbacks on values
// interned after the scan changes. The target dataset's dictionaries must
// assign the same IDs to the snapshot-time values — the invariant
// table.NewFromDicts establishes.
func (cf *ColumnFrequencies) Rebind(d *table.Dataset) *ColumnFrequencies {
	out := *cf
	out.d = d
	return &out
}
