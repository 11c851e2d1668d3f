package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// threeBlobs builds well-separated 2D clusters around (0,0), (10,0), (0,10).
func threeBlobs(rng *rand.Rand, per int) ([][]float64, []int) {
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	var pts [][]float64
	var truth []int
	for c, cen := range centers {
		for i := 0; i < per; i++ {
			pts = append(pts, []float64{
				cen[0] + rng.NormFloat64()*0.3,
				cen[1] + rng.NormFloat64()*0.3,
			})
			truth = append(truth, c)
		}
	}
	return pts, truth
}

// flatten packs nested points into the flat row-major matrix the *Flat
// entry points consume, returning it with its point count and width.
func flatten(points [][]float64) ([]float64, int, int) {
	if len(points) == 0 {
		return nil, 0, 0
	}
	dim := len(points[0])
	data := make([]float64, 0, len(points)*dim)
	for _, p := range points {
		data = append(data, p...)
	}
	return data, len(points), dim
}

// kmeans, agglomerative and randomSample run the flat entry points on
// nested points.
func kmeans(points [][]float64, k int, rng *rand.Rand, maxIter int) *Result {
	data, n, dim := flatten(points)
	return KMeansFlat(data, n, dim, k, rng, maxIter)
}

func agglomerative(points [][]float64, k int, rng *rand.Rand, maxLeaves int) *Result {
	data, n, dim := flatten(points)
	return AgglomerativeFlat(data, n, dim, k, rng, maxLeaves)
}

func randomSample(points [][]float64, k int, rng *rand.Rand) *Result {
	data, n, dim := flatten(points)
	return RandomSampleFlat(data, n, dim, k, rng)
}

// purity measures how well clusters align with the ground-truth blobs.
func purity(assign, truth []int, k int) float64 {
	counts := make(map[[2]int]int)
	for i := range assign {
		counts[[2]int{assign[i], truth[i]}]++
	}
	best := make(map[int]int)
	for key, c := range counts {
		if c > best[key[0]] {
			best[key[0]] = c
		}
	}
	sum := 0
	for _, c := range best {
		sum += c
	}
	return float64(sum) / float64(len(assign))
}

func TestKMeansRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, truth := threeBlobs(rng, 40)
	res := kmeans(pts, 3, rng, 50)
	if p := purity(res.Assign, truth, 3); p < 0.99 {
		t.Errorf("k-means purity = %v, want >= 0.99", p)
	}
	if len(res.Centroids) != 3 {
		t.Errorf("centroids = %d, want 3", len(res.Centroids))
	}
}

func TestAgglomerativeRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts, truth := threeBlobs(rng, 40)
	res := agglomerative(pts, 3, rng, 60)
	if p := purity(res.Assign, truth, 3); p < 0.99 {
		t.Errorf("agglomerative purity = %v, want >= 0.99", p)
	}
}

func TestAgglomerativeLargeInputReduces(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, _ := threeBlobs(rng, 100) // 300 points > maxLeaves
	res := agglomerative(pts, 3, rng, 50)
	if got := len(res.Centroids); got != 3 {
		t.Errorf("clusters = %d, want 3", got)
	}
	if len(res.Assign) != 300 {
		t.Errorf("assignments = %d, want 300", len(res.Assign))
	}
}

func TestRandomSampleShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts, _ := threeBlobs(rng, 10)
	res := randomSample(pts, 5, rng)
	if len(res.Centroids) != 5 {
		t.Errorf("centroids = %d, want 5", len(res.Centroids))
	}
	for _, a := range res.Assign {
		if a < 0 || a >= 5 {
			t.Fatalf("assignment %d out of range", a)
		}
	}
}

func TestCentroidSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, _ := threeBlobs(rng, 20)
	data, n, dim := flatten(pts)
	res := KMeansFlat(data, n, dim, 3, rng, 50)
	samples := res.CentroidSamplesFlat(data, dim)
	if len(samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(samples))
	}
	seen := map[int]bool{}
	for _, s := range samples {
		if s < 0 || s >= len(pts) {
			t.Fatalf("sample index %d out of range", s)
		}
		if seen[s] {
			t.Fatalf("duplicate sample %d", s)
		}
		seen[s] = true
	}
	// Sorted ascending.
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Error("samples must be sorted")
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if res := kmeans(nil, 3, rng, 10); len(res.Assign) != 0 {
		t.Error("empty input should produce empty result")
	}
	// k > n clamps.
	pts := [][]float64{{1}, {2}}
	res := kmeans(pts, 10, rng, 10)
	if len(res.Centroids) != 2 {
		t.Errorf("k clamp: centroids = %d, want 2", len(res.Centroids))
	}
	// All-identical points.
	same := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	res = kmeans(same, 2, rng, 10)
	if len(res.Assign) != 4 {
		t.Error("identical points must still be assigned")
	}
	// k <= 0 becomes 1.
	res = kmeans(pts, 0, rng, 10)
	if len(res.Centroids) != 1 {
		t.Errorf("k=0 should clamp to 1, got %d", len(res.Centroids))
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	pts, _ := threeBlobs(rand.New(rand.NewSource(7)), 30)
	a := kmeans(pts, 3, rand.New(rand.NewSource(42)), 50)
	b := kmeans(pts, 3, rand.New(rand.NewSource(42)), 50)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed must give same clustering")
		}
	}
}

// Property: every point is assigned to a valid cluster and every cluster's
// member list is consistent with the assignment.
func TestKMeansInvariants(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pts, _ := threeBlobs(rng, 15)
		k := int(kRaw)%6 + 1
		res := kmeans(pts, k, rng, 20)
		if len(res.Assign) != len(pts) {
			return false
		}
		count := 0
		for c, mem := range res.Members {
			for _, i := range mem {
				if res.Assign[i] != c {
					return false
				}
				count++
			}
		}
		return count == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// flatBlobs builds random gaussian mixtures directly in flat row-major
// layout: n points of width dim around nc random centers.
func flatBlobs(rng *rand.Rand, n, dim, nc int) []float64 {
	centers := make([]float64, nc*dim)
	for i := range centers {
		centers[i] = rng.NormFloat64() * 5
	}
	data := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		c := rng.Intn(nc)
		for j := 0; j < dim; j++ {
			data[i*dim+j] = centers[c*dim+j] + rng.NormFloat64()*0.5
		}
	}
	return data
}

// TestKMeansPrunedMatchesNaive is the acceleration-correctness property
// test: the Hamerly-pruned KMeansFlat must produce exactly the assignments
// and centroids of the naive full-scan Lloyd loop, on a spread of random
// shapes including duplicate-heavy data (interned feature vectors repeat a
// lot in the real pipeline).
func TestKMeansPrunedMatchesNaive(t *testing.T) {
	for _, tc := range []struct{ n, dim, nc, k, iters int }{
		{60, 2, 3, 3, 25},
		{200, 8, 5, 12, 25},
		{300, 16, 4, 7, 15},
		{100, 3, 2, 30, 10}, // many clusters, few blobs: empty-cluster reseeds
		{50, 4, 1, 5, 10},   // single blob: heavy near-ties
	} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(tc.n)))
			data := flatBlobs(rng, tc.n, tc.dim, tc.nc)
			if seed%2 == 1 {
				// Duplicate half the points onto the first half: exact
				// duplicates exercise tie-breaking.
				for i := tc.n / 2; i < tc.n; i++ {
					src := (i - tc.n/2) * tc.dim
					copy(data[i*tc.dim:(i+1)*tc.dim], data[src:src+tc.dim])
				}
			}
			if seed%4 == 2 {
				// Offset all coordinates far from the origin: norms
				// cancel catastrophically, so an unsound norm-gap
				// prefilter would silently diverge from naive here.
				for i := range data {
					data[i] += 1e9
				}
			}
			pruned := KMeansFlat(data, tc.n, tc.dim, tc.k, rand.New(rand.NewSource(seed+99)), tc.iters)
			naive := kmeansNaiveFlat(data, tc.n, tc.dim, tc.k, rand.New(rand.NewSource(seed+99)), tc.iters)
			if len(pruned.Assign) != len(naive.Assign) {
				t.Fatalf("case %+v seed %d: assign lengths differ", tc, seed)
			}
			for i := range pruned.Assign {
				if pruned.Assign[i] != naive.Assign[i] {
					t.Fatalf("case %+v seed %d: assignment of point %d differs: pruned %d, naive %d",
						tc, seed, i, pruned.Assign[i], naive.Assign[i])
				}
			}
			for c := range pruned.Centroids {
				for j := range pruned.Centroids[c] {
					if pruned.Centroids[c][j] != naive.Centroids[c][j] {
						t.Fatalf("case %+v seed %d: centroid %d[%d] differs", tc, seed, c, j)
					}
				}
			}
		}
	}
}

func BenchmarkKMeansFlat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := flatBlobs(rng, 1500, 32, 8)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		KMeansFlat(data, 1500, 32, 20, rand.New(rand.NewSource(1)), 25)
	}
}

func BenchmarkKMeansNaiveFlat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := flatBlobs(rng, 1500, 32, 8)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kmeansNaiveFlat(data, 1500, 32, 20, rand.New(rand.NewSource(1)), 25)
	}
}
