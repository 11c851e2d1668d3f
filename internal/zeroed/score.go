package zeroed

import (
	"context"
	"sync"

	"repro/internal/feature"
	"repro/internal/nn"
	"repro/internal/table"
)

// maxSharedCacheEntries bounds one column's model-lifetime score cache so a
// long-lived serving model cannot grow without bound on endlessly novel
// value combinations; beyond the cap new entries are computed but not
// retained.
const maxSharedCacheEntries = 1 << 20

// sharedScoreCache is a model-lifetime, concurrency-safe score memo shared
// by every scoring call against one fitted model — the "score forever" side
// of the fit/score split. Keys are the same packed value-ID tuples the
// per-shard dedup cache uses, and they are only admitted when every
// participating ID is below the fit-time dictionary size: those IDs are
// stable across all datasets bound to the model's dictionaries
// (Model.Bind), so a key means the same value combination — and
// therefore the bit-identical feature vector and score — in every call.
// Values interned per scoring call (novel data) get per-call IDs and are
// deliberately never cached here.
type sharedScoreCache struct {
	// stableIDs[c] is column c's fit-time dictionary size; IDs below it are
	// call-invariant.
	stableIDs []uint32
	cols      []sharedScoreCol
}

type sharedScoreCol struct {
	mu sync.RWMutex
	m  map[string]float64
}

// newSharedScoreCache builds an empty cache over a model's fit-time
// dictionaries, whose sizes bound the stable IDs.
func newSharedScoreCache(dicts [][]string) *sharedScoreCache {
	c := &sharedScoreCache{stableIDs: make([]uint32, len(dicts)), cols: make([]sharedScoreCol, len(dicts))}
	for j := range c.cols {
		c.stableIDs[j] = uint32(len(dicts[j]))
		c.cols[j].m = make(map[string]float64)
	}
	return c
}

// load returns the cached score for a stable key, if present.
func (c *sharedScoreCache) load(j int, key []byte) (float64, bool) {
	col := &c.cols[j]
	col.mu.RLock()
	v, ok := col.m[string(key)] // no-alloc lookup; the conversion is free
	col.mu.RUnlock()
	return v, ok
}

// store retains a freshly computed score under a stable key, up to the
// per-column cap.
func (c *sharedScoreCache) store(j int, key []byte, v float64) {
	col := &c.cols[j]
	col.mu.Lock()
	if len(col.m) < maxSharedCacheEntries {
		col.m[string(key)] = v
	}
	col.mu.Unlock()
}

// shardScorer is one scoring shard's fused, allocation-free workspace for
// Step 4: per row it fills one reusable flat feature tile
// (feature.RowFeaturesInto) and runs batched inference over it
// (nn.PredictInto) — no per-cell slice materialization, no per-row
// allocation.
//
// The scorer memoizes scores per column behind a value-ID key:
// FeatureInto(i, j) is a pure function of the tuple's value IDs over
// feature.DepCols(j), so two rows that agree on those IDs receive
// bit-identical feature vectors and therefore bit-identical MLP outputs.
// Each repeated (own value, correlated context) combination — which value
// interning makes very common — is featurized and scored once per shard and
// replayed from the cache afterwards. The cached value is the exact float64
// the model produced, so every cell's score equals a direct
// RowFeaturesInto+PredictInto computation, for every shard count (pinned by
// TestScoreShardCountsMatchDirect).
type shardScorer struct {
	ext       *feature.Extractor
	mlp       *nn.MLP
	d         *table.Dataset
	m, dim    int
	threshold float64

	// Shared output matrices; shards write disjoint row ranges.
	scores [][]float64
	pred   [][]bool

	// depCols[j] keys column j's cache.
	depCols [][]int
	caches  []map[string]float64
	// shared is the model-lifetime cache spanning shards and scoring calls.
	// Checked after the lock-free local cache; only keys whose IDs are all
	// fit-time stable participate.
	shared *sharedScoreCache

	// tile is the m x dim row feature tile, reused across rows; ptile is the
	// compacted tile of one row's cache-miss columns. Both are allocated on
	// the first cache miss, so a fully warm call allocates neither.
	tile       []float64
	ptile      []float64
	pout       []float64 // PredictInto output for ptile
	missJ      []int     // columns missing from the cache this row
	missStable []bool    // whether each miss column's key is shared-cacheable
	keyBuf     []byte    // packed value-ID keys for every column of one row
	keyOff     []int     // keyBuf offset of each miss column's key
}

// newShardScorer builds a scorer over the shared extractor, fitted model,
// and output matrices; depCols[j] is ext.DepCols(j).
func newShardScorer(ext *feature.Extractor, mlp *nn.MLP, d *table.Dataset,
	depCols [][]int, threshold float64, scores [][]float64, pred [][]bool,
	shared *sharedScoreCache) *shardScorer {
	m := d.NumCols()
	dim := ext.Dim()
	s := &shardScorer{
		ext: ext, mlp: mlp, d: d, m: m, dim: dim,
		threshold: threshold, scores: scores, pred: pred,
		depCols: depCols, shared: shared,
		caches:     make([]map[string]float64, m),
		pout:       make([]float64, m),
		missJ:      make([]int, 0, m),
		missStable: make([]bool, m),
		keyOff:     make([]int, m),
	}
	keyCap := 0
	for j := range s.caches {
		s.caches[j] = make(map[string]float64)
		keyCap += 4 * len(depCols[j])
	}
	s.keyBuf = make([]byte, 0, keyCap)
	return s
}

// scoreRows scores every cell of rows [lo, hi). The context is polled every
// few hundred rows so a canceled job stops mid-shard instead of finishing a
// potentially large row range; a partially scored shard is fine because the
// engine discards all output once it observes the cancellation.
func (s *shardScorer) scoreRows(ctx context.Context, lo, hi int) {
	for i := lo; i < hi; i++ {
		if i&0xff == 0 && ctx.Err() != nil {
			return
		}
		s.scoreRow(i)
	}
}

// scoreRow scores all m cells of row i into the shared matrices. A warm
// row allocates nothing; cache misses allocate only their interned key
// strings and map growth.
func (s *shardScorer) scoreRow(i int) {
	scoresRow := s.scores[i]
	s.missJ = s.missJ[:0]
	s.keyBuf = s.keyBuf[:0]
	for j := 0; j < s.m; j++ {
		start := len(s.keyBuf)
		stable := true
		for _, c := range s.depCols[j] {
			id := s.d.ValueID(i, c)
			if stable && id >= s.shared.stableIDs[c] {
				stable = false // per-call ID: never shared-cacheable
			}
			s.keyBuf = append(s.keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		key := s.keyBuf[start:]
		// The conversion in the map index does not allocate (compiler
		// optimizes map[string] lookups keyed by string([]byte)).
		if v, ok := s.caches[j][string(key)]; ok {
			scoresRow[j] = v
			s.keyBuf = s.keyBuf[:start]
			continue
		}
		if stable {
			if v, ok := s.shared.load(j, key); ok {
				scoresRow[j] = v
				s.keyBuf = s.keyBuf[:start]
				continue
			}
		}
		s.keyOff[len(s.missJ)] = start
		s.missStable[len(s.missJ)] = stable
		s.missJ = append(s.missJ, j)
	}
	if len(s.missJ) > 0 {
		if s.tile == nil {
			s.tile = make([]float64, s.m*s.dim)
			s.ptile = make([]float64, s.m*s.dim)
		}
		// Featurize the whole row once (bases computed once, shared by the
		// correlated-context blocks), compact the missing columns' vectors,
		// and run one batched forward pass over them.
		s.ext.RowFeaturesInto(i, s.tile)
		for mi, j := range s.missJ {
			copy(s.ptile[mi*s.dim:(mi+1)*s.dim], s.tile[j*s.dim:(j+1)*s.dim])
		}
		s.mlp.PredictInto(s.ptile, len(s.missJ), s.pout)
		for mi, j := range s.missJ {
			v := s.pout[mi]
			scoresRow[j] = v
			end := len(s.keyBuf)
			if mi+1 < len(s.missJ) {
				end = s.keyOff[mi+1]
			}
			key := s.keyBuf[s.keyOff[mi]:end]
			s.caches[j][string(key)] = v
			if s.missStable[mi] {
				s.shared.store(j, key, v)
			}
		}
	}
	predRow := s.pred[i]
	for j, p := range scoresRow {
		predRow[j] = p >= s.threshold
	}
}
