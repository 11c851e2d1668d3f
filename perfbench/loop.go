package main

import (
	"sync"
	"time"
)

type route int

const (
	routeScore route = iota
	routeStream
	routeRepair
)

var routeNames = []string{"score", "stream", "repair"}

// cycle is each client's request order: score : stream : repair at 2 : 1 : 1.
var cycle = []route{routeScore, routeStream, routeScore, routeRepair}

// sample is one request as the client saw it.
type sample struct {
	ms      float64 // send to last byte
	firstMS float64 // send to first verdict line (stream only)
	rows    int     // rows whose verdicts came back correct
	ok      bool
	traced  bool
}

// target executes one request of a route on distinct body k. tr is nil for
// an untraced request; lane names the client.
type target interface {
	do(r route, k int, tr *tracer, lane int) sample
}

// loopResult holds every sample of a closed-loop run, per route.
type loopResult struct {
	samples [3][]sample
	elapsed time.Duration
}

// runLoop drives a closed loop: each of `clients` goroutines sends its next
// request only after the previous reply has been read and checked. It runs
// for at least minDur and until every route has minSamples samples, giving
// up at maxDur. Client c starts half a cycle and a few bodies apart from
// the others, so the clients do not send the same request in lockstep.
// With a tracer, alternate cycles are traced, so the run measures its own
// tracing overhead.
func runLoop(tg target, clients int, nBodies [3]int, minDur, maxDur time.Duration, minSamples int, tr *tracer) loopResult {
	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	enough := func() bool { // caller holds mu
		el := time.Since(start)
		if el >= maxDur {
			return true
		}
		if el < minDur {
			return false
		}
		for _, s := range res.samples {
			if len(s) < minSamples {
				return false
			}
		}
		return true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var next [3]int
			for i := range next {
				next[i] = c * 3
			}
			for k := 2 * c; ; k++ {
				r := cycle[k%len(cycle)]
				var ctr *tracer
				if tr != nil && (k/len(cycle))%2 == 0 {
					ctr = tr
				}
				s := tg.do(r, next[r]%nBodies[r], ctr, c+1)
				s.traced = ctr != nil
				next[r]++
				mu.Lock()
				res.samples[r] = append(res.samples[r], s)
				stop := enough()
				mu.Unlock()
				if stop {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// routeStats summarises one route: latency quantiles over the requests
// that succeeded; a failed one counts in failed, which marks the run
// incorrect.
type routeStats struct {
	n, failed, rows        int
	p50, p95, firstP50     float64
	tracedP50, untracedP50 float64
}

func (lr *loopResult) stats(r route) routeStats {
	var st routeStats
	var all, first, traced, untraced []float64
	for _, s := range lr.samples[r] {
		st.n++
		if !s.ok {
			st.failed++
			continue
		}
		st.rows += s.rows
		all = append(all, s.ms)
		first = append(first, s.firstMS)
		if s.traced {
			traced = append(traced, s.ms)
		} else {
			untraced = append(untraced, s.ms)
		}
	}
	st.p50, st.p95, st.firstP50 = median(all), quantile(all, 0.95), median(first)
	st.tracedP50, st.untracedP50 = median(traced), median(untraced)
	return st
}

// totals returns attempted and failed requests and correct rows per second.
func (lr *loopResult) totals() (attempted, failed int, rowsPerS float64) {
	rows := 0
	for r := range lr.samples {
		st := lr.stats(route(r))
		attempted += st.n
		failed += st.failed
		rows += st.rows
	}
	return attempted, failed, float64(rows) / lr.elapsed.Seconds()
}

// traceOverheadPct compares traced and untraced score latency medians of a
// traced run; 0 when the run was not traced.
func (lr *loopResult) traceOverheadPct() float64 {
	st := lr.stats(routeScore)
	if st.tracedP50 == 0 || st.untracedP50 == 0 {
		return 0
	}
	return (st.tracedP50/st.untracedP50 - 1) * 100
}
