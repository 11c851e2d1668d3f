// Package cluster implements the clustering-based representative sampling
// of ZeroED Section III-C: k-means with k-means++ seeding (the default),
// agglomerative clustering, and uniform random sampling (the Table VI
// comparison points), plus centroid-nearest sample extraction.
//
// The core operates on a flat row-major points matrix (point i occupies
// data[i*dim : (i+1)*dim]) — the layout the feature extractor's tile APIs
// produce — so the inner loops are cache-friendly and allocation-light.
// KMeansFlat accelerates Lloyd's algorithm with Hamerly-style distance
// bounds, duplicate-row deduplication, and batched column-major distance
// scans, and is guaranteed to produce the same assignments as the naive
// full-scan algorithm: every pruning certificate carries a conservative
// floating-point margin, and whenever a certificate cannot be established
// the point falls back to an exact scan whose per-centroid distances are
// bit-identical to sqDist (same loop order, same tie-breaking).
package cluster

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"

	"repro/internal/kernel"
	"repro/internal/randx"
)

// Result holds a clustering of n points into k groups.
type Result struct {
	// Assign[i] is the cluster id of point i.
	Assign []int
	// Centroids[c] is the mean vector of cluster c.
	Centroids [][]float64
	// Members[c] lists the point indices in cluster c.
	Members [][]int
}

// boundSlack is the relative margin applied to Hamerly bound updates so
// that accumulated floating-point error can never produce a false pruning
// certificate: upper bounds are inflated and lower bounds deflated by this
// factor on every update. The quantities involved (sqDist of coordinate
// differences, sqrt, additions) carry only relative rounding error of a
// few ulps (~1e-16); 1e-9 dwarfs it while pruning everything that matters.
const boundSlack = 1e-9

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// clampK normalizes a requested cluster count against the point count.
func clampK(k, n int) int {
	if k > n {
		k = n
	}
	if k <= 0 {
		k = 1
	}
	return k
}

// newCentroidBlock allocates k centroids of width dim backed by one flat
// block.
func newCentroidBlock(k, dim int) [][]float64 {
	flat := make([]float64, k*dim)
	out := make([][]float64, k)
	for c := range out {
		out[c] = flat[c*dim : (c+1)*dim]
	}
	return out
}

// seedPlusPlus runs k-means++ seeding over the flat matrix: first centroid
// uniform, then proportional to squared distance from the nearest chosen
// centroid.
func seedPlusPlus(data []float64, n, dim, k int, rng *rand.Rand) [][]float64 {
	centroids := newCentroidBlock(k, dim)
	first := rng.Intn(n)
	copy(centroids[0], data[first*dim:(first+1)*dim])
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = sqDist(data[i*dim:(i+1)*dim], centroids[0])
	}
	for chosen := 1; chosen < k; chosen++ {
		var sum float64
		for _, d := range d2 {
			sum += d
		}
		var idx int
		if sum == 0 {
			idx = rng.Intn(n) // all points coincide with some centroid
		} else {
			r := rng.Float64() * sum
			acc := 0.0
			idx = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					idx = i
					break
				}
			}
		}
		c := centroids[chosen]
		copy(c, data[idx*dim:(idx+1)*dim])
		for i := range d2 {
			if d := sqDist(data[i*dim:(i+1)*dim], c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// dedupPoints groups bit-identical rows of the flat matrix: uid[i] is the
// dense unique id of point i, reps[t] the index of the first point carrying
// unique id t. Identity is exact float64 bit equality (NaN payloads and
// zero signs included), so two points sharing a uid are indistinguishable
// to every distance computation — the foundation of the per-unique Lloyd
// and seeding paths below. Value-interned pipelines (this repo's feature
// tiles) produce heavily duplicated rows, so u is often far below n.
func dedupPoints(data []float64, n, dim int) (uid []int32, reps []int32) {
	uid = make([]int32, n)
	seen := make(map[string]int32, n)
	buf := make([]byte, dim*8)
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		for j, v := range row {
			binary.LittleEndian.PutUint64(buf[j*8:], math.Float64bits(v))
		}
		if t, ok := seen[string(buf)]; ok {
			uid[i] = t
			continue
		}
		t := int32(len(reps))
		seen[string(buf)] = t
		reps = append(reps, int32(i))
		uid[i] = t
	}
	return uid, reps
}

// seedPlusPlusDedup is seedPlusPlus with the per-point distance work
// deduplicated by unique id and batched column-major: squared distances
// are computed once per unique row (via distsToAll over the transposed
// unique-points tile, each bit-identical to sqDist) and read through uid
// for the weighted draws. The d2 value sequence, the accumulation order of
// the proportional draws, and the rng stream are exactly those of
// seedPlusPlus — duplicates always carried identical d2 entries — so the
// chosen centroids are bit-identical.
func seedPlusPlusDedup(data []float64, n, dim, k int, rng *rand.Rand, uid, reps []int32) [][]float64 {
	u := len(reps)
	ptsT := make([]float64, dim*u)
	transposeRows(ptsT, data, reps, u, dim)
	centroids := newCentroidBlock(k, dim)
	first := rng.Intn(n)
	copy(centroids[0], data[first*dim:(first+1)*dim])
	d2u := make([]float64, u)
	distsToAll(centroids[0], ptsT, u, d2u)
	dnew := make([]float64, u)
	for chosen := 1; chosen < k; chosen++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += d2u[uid[i]]
		}
		var idx int
		if sum == 0 {
			idx = rng.Intn(n) // all points coincide with some centroid
		} else {
			r := rng.Float64() * sum
			acc := 0.0
			idx = n - 1
			for i := 0; i < n; i++ {
				acc += d2u[uid[i]]
				if acc >= r {
					idx = i
					break
				}
			}
		}
		c := centroids[chosen]
		copy(c, data[idx*dim:(idx+1)*dim])
		distsToAll(c, ptsT, u, dnew)
		for t, d := range dnew {
			if d < d2u[t] {
				d2u[t] = d
			}
		}
	}
	return centroids
}

// updateCentroids recomputes each centroid as the mean of its members,
// re-seeding empty clusters at the point farthest from its current
// centroid. Shared by the pruned and naive Lloyd loops so both see
// identical centroid sequences.
func updateCentroids(data []float64, n, dim int, assign []int, centroids [][]float64, counts []int) {
	k := len(centroids)
	for c := 0; c < k; c++ {
		counts[c] = 0
		cen := centroids[c]
		for j := range cen {
			cen[j] = 0
		}
	}
	for i := 0; i < n; i++ {
		c := assign[i]
		counts[c]++
		cen := centroids[c]
		p := data[i*dim : (i+1)*dim]
		for j, x := range p {
			cen[j] += x
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			// Re-seed empty cluster at the point farthest from its
			// centroid to keep k effective clusters.
			far, farD := 0, -1.0
			for i := 0; i < n; i++ {
				if d := sqDist(data[i*dim:(i+1)*dim], centroids[assign[i]]); d > farD {
					far, farD = i, d
				}
			}
			copy(centroids[c], data[far*dim:(far+1)*dim])
			continue
		}
		inv := 1.0 / float64(counts[c])
		cen := centroids[c]
		for j := range cen {
			cen[j] *= inv
		}
	}
}

// distsToAll computes the exact squared distance from vec to each of the m
// vectors held column-major in tileT (coordinate j of vector t at
// tileT[j*m+t]), writing them into dist[:m]. It is kernel.SqDist over
// zeroed accumulators: accumulator t receives (vec[0]-x_t[0])² +
// (vec[1]-x_t[1])² + ... strictly in ascending coordinate order — sqDist's
// exact association, so every distance is bit-identical to sqDist(vec,
// x_t) — while the column walk advances m independent lanes, four per
// instruction on AVX2. (A squared difference is sign-insensitive, so
// either subtraction orientation yields identical bits.)
func distsToAll(vec, tileT []float64, m int, dist []float64) {
	d := dist[:m]
	for t := range d {
		d[t] = 0
	}
	kernel.SqDist(d, tileT, vec)
}

// transposeRows fills tileT (dim x m, column-major tile) from the m rows of
// data selected by rows (row t at data[rows[t]*dim:]). With rows nil, rows
// 0..m-1 are taken in order.
func transposeRows(tileT, data []float64, rows []int32, m, dim int) {
	for t := 0; t < m; t++ {
		ri := t
		if rows != nil {
			ri = int(rows[t])
		}
		row := data[ri*dim : (ri+1)*dim]
		for j, v := range row {
			tileT[j*m+t] = v
		}
	}
}

// selectBest returns the argmin over dist[:m] (first index on ties, like
// the naive scan loop), its value, and the runner-up value.
func selectBest(dist []float64, m int) (best int, bestD, secondD float64) {
	best, bestD, secondD = 0, math.Inf(1), math.Inf(1)
	for c, d := range dist[:m] {
		if d < bestD {
			secondD = bestD
			best, bestD = c, d
		} else if d < secondD {
			secondD = d
		}
	}
	return best, bestD, secondD
}

// KMeansFlat clusters n points of width dim, stored row-major in data,
// into k groups using Lloyd's algorithm with k-means++ initialization,
// accelerated by Hamerly-style upper/lower distance bounds, cached
// point/centroid squared norms, and duplicate-point deduplication: all
// per-point distance work (seeding distances, bound maintenance, centroid
// scans) runs once per bit-identical unique row and is splatted back to
// point space. Bit-equal points see identical distances, certificates, and
// scan results at every step, and the order-sensitive reductions (the
// k-means++ proportional draws and the centroid member sums) still run over
// all n points in original index order, so results (assignments and
// centroids) are identical to the naive full-scan algorithm for every
// input. k is clamped to n; maxIter bounds the Lloyd iterations.
func KMeansFlat(data []float64, n, dim, k int, rng *rand.Rand, maxIter int) *Result {
	if n == 0 {
		return &Result{}
	}
	k = clampK(k, n)
	uid, reps := dedupPoints(data, n, dim)
	u := len(reps)
	centroids := seedPlusPlusDedup(data, n, dim, k, rng, uid, reps)

	// Column-major centroid tile, rebuilt per iteration, plus the distance
	// scratch the batched exact scan writes into.
	cenT := make([]float64, dim*k)
	dist := make([]float64, k)

	// Per-unique assignment and Hamerly bounds, in distance (not squared)
	// space: ubU[t] is an upper bound on the distance from unique t to its
	// assigned centroid, lbU[t] a lower bound on the distance to every
	// other centroid. Duplicates of one unique always carried identical
	// assignment and bound trajectories, so one slot per unique loses
	// nothing.
	assignU := make([]int, u)
	for t := range assignU {
		assignU[t] = -1
	}
	ubU := make([]float64, u)
	lbU := make([]float64, u)

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	counts := make([]int, k)
	oldCentroids := newCentroidBlock(k, dim)
	drift := make([]float64, k)

	for iter := 0; iter < maxIter; iter++ {
		for c, cen := range centroids {
			for j, v := range cen {
				cenT[j*k+c] = v
			}
		}
		changed := false
		for t := 0; t < u; t++ {
			ri := int(reps[t])
			p := data[ri*dim : (ri+1)*dim]
			if a := assignU[t]; a >= 0 {
				// Certificate 1: stale bounds already separate the
				// assigned centroid from all others.
				if ubU[t] < lbU[t] {
					continue
				}
				// Certificate 2: tighten the upper bound to the exact
				// current distance and re-test.
				exact := math.Sqrt(sqDist(p, centroids[a]))
				ubU[t] = exact * (1 + boundSlack)
				if ubU[t] < lbU[t] {
					continue
				}
			}
			// Fall back to the batched exact scan (every distance
			// bit-identical to the naive loop's sqDist, same first-on-tie
			// argmin), then refresh both bounds from its distances. The
			// runner-up distance here is exact, a valid (and tighter) lower
			// bound wherever the historical norm-gap estimate was used.
			distsToAll(p, cenT, k, dist)
			best, bestD, secondD := selectBest(dist, k)
			ubU[t] = math.Sqrt(bestD) * (1 + boundSlack)
			lbU[t] = math.Sqrt(secondD) * (1 - boundSlack)
			if assignU[t] != best {
				assignU[t] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		for i := 0; i < n; i++ {
			assign[i] = assignU[uid[i]]
		}
		for c, cen := range centroids {
			copy(oldCentroids[c], cen)
		}
		updateCentroids(data, n, dim, assign, centroids, counts)
		// Bound maintenance: each unique's upper bound grows by its own
		// centroid's drift, every lower bound shrinks by the largest drift.
		maxDrift := 0.0
		for c := range centroids {
			drift[c] = math.Sqrt(sqDist(oldCentroids[c], centroids[c])) * (1 + boundSlack)
			if drift[c] > maxDrift {
				maxDrift = drift[c]
			}
		}
		for t := 0; t < u; t++ {
			ubU[t] += drift[assignU[t]]
			lbU[t] -= maxDrift
		}
	}
	return finishFlat(assign, centroids)
}

// kmeansNaiveFlat is the reference full-scan Lloyd loop over the flat
// matrix: identical seeding, centroid updates, and tie-breaking as
// KMeansFlat but with no pruning. Kept (package-private) as the oracle for
// the pruned-equals-naive property test.
func kmeansNaiveFlat(data []float64, n, dim, k int, rng *rand.Rand, maxIter int) *Result {
	if n == 0 {
		return &Result{}
	}
	k = clampK(k, n)
	centroids := seedPlusPlus(data, n, dim, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	counts := make([]int, k)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			p := data[i*dim : (i+1)*dim]
			best, bestD := 0, math.Inf(1)
			for c, cen := range centroids {
				if d := sqDist(p, cen); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		updateCentroids(data, n, dim, assign, centroids, counts)
	}
	return finishFlat(assign, centroids)
}

func finishFlat(assign []int, centroids [][]float64) *Result {
	members := make([][]int, len(centroids))
	for i, c := range assign {
		members[c] = append(members[c], i)
	}
	return &Result{Assign: assign, Centroids: centroids, Members: members}
}

// CentroidSamplesFlat returns, for each non-empty cluster, the index of
// the member nearest its centroid — ZeroED's representative sample q_cje —
// over the flat points matrix the clustering was computed on. The result
// is sorted ascending for determinism.
func (r *Result) CentroidSamplesFlat(data []float64, dim int) []int {
	var out []int
	for c, mem := range r.Members {
		if len(mem) == 0 {
			continue
		}
		best, bestD := mem[0], math.Inf(1)
		for _, i := range mem {
			if d := sqDist(data[i*dim:(i+1)*dim], r.Centroids[c]); d < bestD {
				best, bestD = i, d
			}
		}
		out = append(out, best)
	}
	sort.Ints(out)
	return out
}

// RandomSampleFlat clusters points trivially: it draws k distinct indices
// uniformly (an O(k) partial Fisher–Yates draw) and assigns every point to
// its nearest sampled index. This is the "Random" row of Table VI
// expressed in the same Result shape.
func RandomSampleFlat(data []float64, n, dim, k int, rng *rand.Rand) *Result {
	if n == 0 {
		return &Result{}
	}
	k = clampK(k, n)
	perm := randx.PartialPerm(rng, n, k)
	centroids := newCentroidBlock(k, dim)
	for c, i := range perm {
		copy(centroids[c], data[i*dim:(i+1)*dim])
	}
	assign := make([]int, n)
	for i := 0; i < n; i++ {
		p := data[i*dim : (i+1)*dim]
		best, bestD := 0, math.Inf(1)
		for c, cen := range centroids {
			if d := sqDist(p, cen); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
	}
	return finishFlat(assign, centroids)
}

// AgglomerativeFlat performs average-linkage hierarchical clustering down
// to k clusters over the flat matrix. To keep the O(n^2)-ish cost
// tractable on large attributes it first reduces the data to at most
// maxLeaves seed groups via a fine k-means pass, then merges those groups
// hierarchically — the standard "hybrid" trick for scalable AGC.
func AgglomerativeFlat(data []float64, n, dim, k int, rng *rand.Rand, maxLeaves int) *Result {
	if n == 0 {
		return &Result{}
	}
	k = clampK(k, n)
	if maxLeaves < k {
		maxLeaves = k
	}

	// Seed groups.
	var seed *Result
	if n <= maxLeaves {
		assign := make([]int, n)
		cents := newCentroidBlock(n, dim)
		for i := 0; i < n; i++ {
			assign[i] = i
			copy(cents[i], data[i*dim:(i+1)*dim])
		}
		seed = finishFlat(assign, cents)
	} else {
		seed = KMeansFlat(data, n, dim, maxLeaves, rng, 10)
	}

	type group struct {
		centroid []float64
		size     int
		members  []int
		alive    bool
	}
	groups := make([]*group, 0, len(seed.Centroids))
	for c, mem := range seed.Members {
		if len(mem) == 0 {
			continue
		}
		groups = append(groups, &group{
			centroid: append([]float64(nil), seed.Centroids[c]...),
			size:     len(mem),
			members:  append([]int(nil), mem...),
			alive:    true,
		})
	}

	aliveCount := len(groups)
	for aliveCount > k {
		// Find the closest pair of alive groups (average linkage on
		// centroids weighted by size is equivalent for merged means).
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < len(groups); i++ {
			if !groups[i].alive {
				continue
			}
			for j := i + 1; j < len(groups); j++ {
				if !groups[j].alive {
					continue
				}
				if d := sqDist(groups[i].centroid, groups[j].centroid); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		gi, gj := groups[bi], groups[bj]
		total := float64(gi.size + gj.size)
		for x := range gi.centroid {
			gi.centroid[x] = (gi.centroid[x]*float64(gi.size) + gj.centroid[x]*float64(gj.size)) / total
		}
		gi.members = append(gi.members, gj.members...)
		gi.size += gj.size
		gj.alive = false
		aliveCount--
	}

	assign := make([]int, n)
	var centroids [][]float64
	c := 0
	for _, g := range groups {
		if !g.alive {
			continue
		}
		for _, i := range g.members {
			assign[i] = c
		}
		centroids = append(centroids, g.centroid)
		c++
	}
	return finishFlat(assign, centroids)
}
