package llm

import (
	"context"
	"fmt"
	"hash/fnv"

	"repro/internal/faultpoint"
	"repro/internal/retry"
	"repro/internal/table"
)

// fpJudgeTransient simulates a flaky LLM backend: armed with error(N) the
// first N labeling calls fail before any tokens are charged, exactly like a
// 429/503 that never reached the model.
var fpJudgeTransient = faultpoint.New("llm.judge.transient")

// LabelBatch labels one batch of cells of attribute j (see labelBatch for
// the prompt, the nil-guideline ablation and the optional memo) behind a
// jittered-exponential retry loop for transient backend failures. memo may
// be nil, which turns the judgement dedup off.
//
// Bit-identity contract: a call that succeeds after retries returns the
// exact verdicts (and charges the exact tokens) of a call that succeeded
// first try. That holds because (1) a failed attempt aborts before
// labelBatch runs, so it charges nothing and draws nothing; (2) the per-cell
// labeling-noise RNG is keyed, not sequential — each cell reseeds from
// (profile seed, dataset, attribute, row), so the draw cannot depend on how
// many attempts preceded it; and (3) the retrier's jitter uses its own
// seeded stream (see package retry). The seed is derived per batch so
// backoff timing is itself reproducible.
func (c *Client) LabelBatch(ctx context.Context, d *table.Dataset, j int, rows []int, g *Guideline, memo *JudgeMemo) ([]bool, error) {
	var out []bool
	first := -1
	if len(rows) > 0 {
		first = rows[0]
	}
	p := retry.Policy{Seed: jitterSeed(c.profile.Seed, d.Name, j, first)}
	err := retry.Do(ctx, p, func() error {
		if err := fpJudgeTransient.Eval(); err != nil {
			return err
		}
		out = c.labelBatch(d, j, rows, g, memo)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("llm: labeling %s batch at row %d: %w", d.Attrs[j], first, err)
	}
	return out, nil
}

// jitterSeed keys the retry jitter stream off the batch identity so backoff
// timing is reproducible run to run, while staying disjoint from every
// c.rng stream (those hash human-readable keys; this hashes a batch tuple
// with a distinct prefix).
func jitterSeed(seed int64, dataset string, j, firstRow int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "retry/%s/%d/%d", dataset, j, firstRow)
	s := seed ^ int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}
