package zeroed

import (
	"math/rand"

	"repro/internal/criteria"
)

// stageTrainingData implements Algorithm 1 (Step 3): in-cluster label
// propagation, contrastive criteria refinement, mutual verification between
// refined criteria and propagated labels, and LLM error augmentation. The
// attributes are independent, so the stage fans out per attribute on the
// shared pool — each attribute draws from its own phaseTrainData stream and
// fills its own result slot — and the slots are concatenated in attribute
// order afterwards, keeping the training set identical for any worker
// count. It also updates the extractor's criteria features with the refined
// sets (the "update criteria feat" arrow of Fig. 3).
func (e *engine) stageTrainingData() {
	m := e.d.NumCols()
	// posOf maps a dataset row id to its position within clusterRows
	// (cluster assignments are indexed by position).
	posOf := make(map[int]int, len(e.clusterRows))
	for pos, row := range e.clusterRows {
		posOf[row] = pos
	}
	perTrain := make([][]cellLabel, m)
	perSynth := make([][]syntheticCell, m)
	e.pool.forN(m, func(j int) {
		if e.ctx.Err() != nil {
			return
		}
		arng := attrRng(e.cfg.Seed, j, phaseTrainData)
		perTrain[j], perSynth[j] = e.attrTrainingData(j, posOf, arng)
	})
	for j := 0; j < m; j++ {
		e.training = append(e.training, perTrain[j]...)
		e.synth = append(e.synth, perSynth[j]...)
	}
	e.res.AugmentedErrs = len(e.synth)
	e.res.TrainingCells = len(e.training) + len(e.synth)
}

// attrTrainingData runs Algorithm 1 for one attribute. It touches only
// attribute j's slots of the shared engine state (criteria set, extractor
// criteria memo), so concurrent attributes never conflict.
func (e *engine) attrTrainingData(j int, posOf map[int]int, arng *rand.Rand) ([]cellLabel, []syntheticCell) {
	cfg := e.cfg
	d := e.d
	var training []cellLabel
	var synth []syntheticCell

	// Line 1: PropagateLabels — every member of a cluster inherits the
	// centroid sample's LLM label.
	var propagated []cellLabel
	labelOfCluster := map[int]bool{}
	haveLabel := map[int]bool{}
	cl := e.clusterings[j]
	for _, lc := range e.labeled[j] {
		c := cl.Assign[posOf[lc.row]]
		labelOfCluster[c] = lc.isErr
		haveLabel[c] = true
	}
	for pos, c := range cl.Assign {
		if haveLabel[c] {
			propagated = append(propagated, cellLabel{row: e.clusterRows[pos], col: j, isErr: labelOfCluster[c]})
		}
	}
	propagated = capPropagated(propagated, cfg.MaxPropagatedPerAttr, arng)

	if cfg.DisableVerification {
		return propagated, nil
	}

	// Lines 4-7: contrastive in-context criteria refinement from the
	// LLM-labeled samples.
	var cleanVals, errVals []string
	for _, lc := range e.labeled[j] {
		v := d.Value(lc.row, lc.col)
		if lc.isErr {
			errVals = append(errVals, v)
		} else {
			cleanVals = append(cleanVals, v)
		}
	}
	refined := e.critSets[j]
	if refined != nil && (len(cleanVals) > 0 || len(errVals) > 0) {
		refined = e.client.RefineCriteria(refined, cleanVals, errVals)
	}

	// Lines 8-14: verify criteria against propagated-clean rows with the
	// paper's 0.5 accuracy threshold (index-based evaluation; no per-row
	// map materialization).
	var rightRows []int
	for _, lc := range propagated {
		if !lc.isErr {
			rightRows = append(rightRows, lc.row)
		}
	}
	// The verification and pass-rate passes below evaluate the same
	// criteria against heavily duplicated cell values, so they run through
	// a per-value-ID verdict memo (criteria.SetMemo), whose cached booleans
	// are exactly what EvalAt would recompute — aggregates are bit-identical
	// to criteria.VerifySetAt and Set.PassRateAt.
	var memo *criteria.SetMemo
	if refined != nil {
		memo = criteria.NewSetMemo(d, j, refined).Verify(rightRows, 0.5)
		refined = memo.Set()
		// Update criteria features with the verified refined set.
		e.ext.SetCriteria(j, refined)
		e.critSets[j] = refined
	}

	// Lines 15-20: verify propagated-clean cells against the surviving
	// criteria with the 0.5 pass-rate threshold. Symmetrically,
	// propagated-*error* cells that pass every surviving criterion are
	// dropped too: clusters are imperfect, and an error label on a
	// fully-conforming cell is almost always propagation noise. (The
	// paper verifies only the clean side explicitly; the symmetric
	// check follows the same mutual-verification argument.)
	directlyLabeled := map[int]bool{}
	for _, lc := range e.labeled[j] {
		directlyLabeled[lc.row] = true
	}
	for _, lc := range propagated {
		if lc.isErr {
			if refined != nil && len(refined.Criteria) > 0 &&
				!directlyLabeled[lc.row] && memo.PassRateAt(lc.row) == 1 {
				continue
			}
			training = append(training, lc)
			continue
		}
		if refined == nil || memo.PassRateAt(lc.row) >= 0.5 {
			training = append(training, lc)
		}
	}

	// Lines 24-25: LLM error augmentation toward class balance.
	cleanCount, errCount := 0, 0
	for _, lc := range propagated {
		if lc.isErr {
			errCount++
		} else {
			cleanCount++
		}
	}
	want := cleanCount/2 - errCount
	if want > cfg.AugmentPerAttr {
		want = cfg.AugmentPerAttr
	}
	if want > 0 && len(cleanVals) > 0 {
		genErrs := e.client.AugmentErrors(d.Attrs[j], cleanVals, errVals, want)
		// Host each synthetic error in a random propagated-clean row.
		hosts := make([]int, 0, len(propagated))
		for _, lc := range propagated {
			if !lc.isErr {
				hosts = append(hosts, lc.row)
			}
		}
		if len(hosts) > 0 {
			for _, v := range genErrs {
				synth = append(synth, syntheticCell{row: hosts[arng.Intn(len(hosts))], col: j, value: v})
			}
		}
	}
	return training, synth
}

// capPropagated downsamples the propagated pool to the configured cap,
// always keeping all error-labeled cells (the minority class) and filling
// the remainder with a seeded sample of clean cells.
func capPropagated(propagated []cellLabel, cap int, rng *rand.Rand) []cellLabel {
	if len(propagated) <= cap {
		return propagated
	}
	var errs, cleans []cellLabel
	for _, lc := range propagated {
		if lc.isErr {
			errs = append(errs, lc)
		} else {
			cleans = append(cleans, lc)
		}
	}
	out := errs
	room := cap - len(errs)
	if room <= 0 {
		return errs
	}
	rng.Shuffle(len(cleans), func(i, j int) { cleans[i], cleans[j] = cleans[j], cleans[i] })
	if room > len(cleans) {
		room = len(cleans)
	}
	return append(out, cleans[:room]...)
}
