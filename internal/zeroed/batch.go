package zeroed

import (
	"context"
	"fmt"

	"repro/internal/table"
)

// DetectBatch runs the full pipeline on several datasets, multiplexing
// every stage of every run over one shared bounded worker pool of
// Config.Workers workers. Each dataset is detected with the detector's own
// (defaulted) configuration and seed, so DetectBatch(ds)[i] is bit-identical
// to DetectOn(ds[i]) — batching changes scheduling, never results. Token
// usage is accounted per dataset, as if each had its own client. A
// canceled context aborts every run of the batch. Runs only read their
// datasets, so one dataset may fill several slots.
func (dt *Detector) DetectBatch(ctx context.Context, ds []*table.Dataset) ([]*Result, error) {
	pool := NewPool(dt.cfg.Workers)
	results := make([]*Result, len(ds))
	errs := make([]error, len(ds))
	pool.forN(len(ds), func(i int) {
		results[i], errs[i] = dt.DetectOn(ctx, pool, ds[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("zeroed: dataset %d (%s): %w", i, ds[i].Name, err)
		}
	}
	return results, nil
}
