package zeroed

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the one bounded worker budget shared by every stage of the
// detection engine. A single pool spans criteria generation, sampling and
// labeling, training-data construction, feature building, detector
// training, and sharded scoring — and, through DetectBatch, all of those
// stages across several concurrent dataset runs — so nested fan-out never
// oversubscribes the machine beyond its worker count. Callers that multiplex many runs
// arriving over time (a serving process admitting jobs, for example) pass
// one machine-wide pool to the *On calls (Detector.DetectOn and FitOn,
// Model.ScoreOn and ScoreRowsOn); a nil *Pool passed to any of them means a
// private pool of the run's configured Workers. A Pool is safe for
// concurrent use and needs no shutdown.
//
// The design is caller-runs with best-effort helpers: forN always executes
// work on the calling goroutine and additionally spawns helper goroutines
// while free worker tokens exist. Because the caller never blocks on a
// token, arbitrarily nested forN calls (a batch of engines, each running
// staged fan-outs) cannot deadlock; when the budget is exhausted the inner
// loops simply degrade to serial execution on their callers.
//
// Training takes its helpers the same way, but for its whole run: lend
// grabs free tokens without blocking, up to what nn can use (one today),
// nn.Train runs a helper goroutine per token, and giveBack returns them
// when it ends. A busy pool lends none, and training runs on its caller
// alone.
//
// The pool imposes no ordering: correctness relies on the engine's
// determinism contract — every unit of work writes disjoint slots and draws
// randomness from its own derived stream — so results are bit-identical for
// any worker count.
type Pool struct {
	// tokens holds workers-1 helper slots; the calling goroutine of each
	// forN is the implicit extra worker.
	tokens chan struct{}
}

// NewPool creates a shared pool with the given worker budget; zero or
// negative means runtime.GOMAXPROCS(0), mirroring Config.Workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{tokens: make(chan struct{}, workers-1)}
}

// Workers returns the pool's worker budget.
func (p *Pool) Workers() int { return cap(p.tokens) + 1 }

// orNew resolves the pool argument of the *On calls: a nil *Pool means a
// private pool of the given worker budget for this call.
func (p *Pool) orNew(workers int) *Pool {
	if p == nil {
		return NewPool(workers)
	}
	return p
}

// forN runs fn(0..n-1), distributing iterations across the caller plus as
// many helper workers as the shared budget allows, and returns after every
// iteration completed. Iterations are claimed from an atomic cursor, so the
// partition adapts to uneven unit costs.
func (p *Pool) forN(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var cursor atomic.Int64
	run := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
spawn:
	for s := 0; s < n-1; s++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-p.tokens
					wg.Done()
				}()
				run()
			}()
		default:
			break spawn // budget exhausted: the caller handles the rest
		}
	}
	run()
	wg.Wait()
}

// lend takes up to n free helper tokens without blocking and returns how
// many it got; the borrower returns them with giveBack when it is done.
func (p *Pool) lend(n int) int {
	for got := 0; got < n; got++ {
		select {
		case p.tokens <- struct{}{}:
		default:
			return got
		}
	}
	return n
}

// giveBack returns n tokens taken by lend.
func (p *Pool) giveBack(n int) {
	for ; n > 0; n-- {
		<-p.tokens
	}
}
