package zeroed

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/llm"
)

// goldenDetect is what DetectOn returns on one detBenches() dataset at
// detConfig: SHA-256 digests of the verdict mask (one byte per cell,
// row-major) and of the raw score bits (little-endian float64 per cell,
// row-major), the LLM usage, and the four diagnostics.
type goldenDetect struct {
	mask, scores                           string
	usage                                  llm.Usage
	sampled, training, augmented, criteria int
}

// detectDigests hashes a result's verdict mask and score bits.
func detectDigests(res *Result) (mask, scores string) {
	mh, sh := sha256.New(), sha256.New()
	var b [8]byte
	for i := range res.Pred {
		for j, p := range res.Pred[i] {
			if p {
				mh.Write([]byte{1})
			} else {
				mh.Write([]byte{0})
			}
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(res.Scores[i][j]))
			sh.Write(b[:])
		}
	}
	return hex.EncodeToString(mh.Sum(nil)), hex.EncodeToString(sh.Sum(nil))
}

// TestDetectGolden pins the detector's output on each detBenches() dataset
// as a checked-in fact, so any drift in a verdict, a score bit, the token
// spend or a diagnostic fails here. The constants were captured while the
// scoring and fit dedup caches could still be switched off and the shard
// count set directly, with every on/off and shard combination agreeing on
// them. A change that moves them on purpose says so and re-pins them.
func TestDetectGolden(t *testing.T) {
	want := map[string]goldenDetect{
		"Hospital": {
			mask:      "248994d1259a54d924ea5f1462d0abed254ef413536723ee1f2c98d4484ea866",
			scores:    "f819cd85834febc7a917f91f7f420fca0b5e45ba7bd9a6cfdbf90b2ec2b902c2",
			usage:     llm.Usage{InputTokens: 219936, OutputTokens: 15075, Calls: 120},
			sampled:   380,
			training:  6894,
			augmented: 2129,
			criteria:  91,
		},
		"Beers": {
			mask:      "5797de45f0ed1e96ab0229962fa4f9ac36a98ab1855eff4bd8ca02d9d84fa509",
			scores:    "000c2a014791d6eee20dee4a5f1e34fde5cd180fef277b4501bd4f93c3eb77c4",
			usage:     llm.Usage{InputTokens: 57073, OutputTokens: 7840, Calls: 66},
			sampled:   220,
			training:  4085,
			augmented: 1238,
			criteria:  58,
		},
	}
	for _, bench := range detBenches() {
		t.Run(bench.Name, func(t *testing.T) {
			res, err := New(detConfig(2)).DetectOn(context.Background(), nil, bench.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			mask, scores := detectDigests(res)
			got := goldenDetect{
				mask: mask, scores: scores, usage: res.Usage,
				sampled: res.SampledCells, training: res.TrainingCells,
				augmented: res.AugmentedErrs, criteria: res.CriteriaCount,
			}
			if got != want[bench.Name] {
				t.Errorf("%s drifted:\n got %+v\nwant %+v", bench.Name, got, want[bench.Name])
			}
		})
	}
}
