package serve

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// JobState is the lifecycle state of one detection job.
type JobState string

// Job lifecycle: Queued -> Running -> one of Done/Failed/Canceled. A queued
// job may go straight to Canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// JobParams are the per-job detection knobs a client may set at submit
// time. They mirror the cmd/zeroed flags, so a job with the same seed and
// input is bit-identical to a CLI run.
type JobParams struct {
	// Name labels the job (default: the submitted dataset name, "upload").
	Name string
	// Seed drives all pipeline randomness (default 1, like cmd/zeroed).
	Seed int64
	// LabelRate is the LLM label rate (default 0.05).
	LabelRate float64
	// CorrK is the correlated-attribute count (default 2).
	CorrK int
	// Threshold is the decision threshold (default 0.4).
	Threshold float64
	// Profile is the simulated LLM profile name (default Qwen2.5-72b).
	Profile string
}

// job is one submitted detection unit. The mutex guards every mutable
// field; reads for status reporting snapshot under it.
type job struct {
	mu sync.Mutex

	id      string
	params  JobParams
	ds      *table.Dataset
	attrs   []string
	rows    int
	cols    int
	state   JobState
	errMsg  string
	res     *zeroed.Result
	created time.Time
	started time.Time
	done    time.Time
	cancel  context.CancelFunc

	// trace is the submit request's trace, adopted by the job because it
	// outlives the request: the middleware leaves it open and the job
	// finalizes it. qspan spans the admission-queue wait; traceTree is the
	// finished snapshot served by GET /v1/jobs/{id}/trace.
	trace     *obs.Trace
	qspan     *obs.Span
	rid       string
	traceTree *obs.Node
}

// snapshot returns a consistent copy of the job's reportable state.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:      j.id,
		Name:    j.params.Name,
		State:   j.state,
		Rows:    j.rows,
		Cols:    j.cols,
		Seed:    j.params.Seed,
		Error:   j.errMsg,
		Created: j.created,
	}
	if !j.started.IsZero() {
		s.Started = &j.started
	}
	if !j.done.IsZero() {
		s.Finished = &j.done
	}
	if j.res != nil {
		s.RuntimeMS = j.res.Runtime.Milliseconds()
	}
	return s
}

// JobStatus is the wire form of a job's lifecycle state.
type JobStatus struct {
	ID        string     `json:"id"`
	Name      string     `json:"name"`
	State     JobState   `json:"state"`
	Rows      int        `json:"rows"`
	Cols      int        `json:"cols"`
	Seed      int64      `json:"seed"`
	Error     string     `json:"error,omitempty"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	RuntimeMS int64      `json:"runtime_ms,omitempty"`
}

// manager owns the job table, the bounded admission queue, and the runner
// goroutines that multiplex admitted jobs onto one shared zeroed.Pool.
// Admission is two-stage by design: the queue bounds how many jobs wait,
// the runner count bounds how many detect concurrently, and the shared pool
// bounds how many worker goroutines those concurrent jobs can occupy in
// total — so N clients can never oversubscribe the machine.
type manager struct {
	cfg  Config
	pool *zeroed.Pool
	met  *metrics
	log  *slog.Logger

	// retain, when set (by serve.New), offers a finished job trace for
	// slow-request retention in the debug ring.
	retain func(tr *obs.Trace, route, rid string, dur time.Duration)

	mu     sync.Mutex
	cond   *sync.Cond // signals runners when queue gains a job or close() runs
	closed bool
	jobs   map[string]*job
	order  []string // insertion order, for finished-job eviction
	queue  []*job   // FIFO of admitted jobs not yet picked up by a runner
	nextID int64

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

func newManager(cfg Config, met *metrics, log *slog.Logger) *manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &manager{
		cfg:     cfg,
		pool:    zeroed.NewPool(cfg.Workers),
		met:     met,
		log:     log,
		jobs:    make(map[string]*job),
		baseCtx: ctx,
		stop:    cancel,
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.MaxConcurrentJobs; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m
}

// close cancels every in-flight job and waits for the runners to drain.
// Jobs still queued at close time are finalized as canceled by the runners
// (the base context is already canceled, so each aborts at its first stage
// boundary).
func (m *manager) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.stop()
	m.cond.Broadcast()
	m.wg.Wait()
}

// errQueueFull is returned by submit when the admission queue is at
// capacity; the HTTP layer maps it to 429.
var errQueueFull = fmt.Errorf("serve: job queue is full, retry later")

// submit admits a parsed dataset as a queued job, or rejects it when the
// bounded queue is full. Only jobs actually waiting count against the
// queue bound — canceling a queued job frees its slot immediately.
//
// The submit request's trace is adopted here: the job outlives the request,
// so the middleware must not finish the trace at response time. A
// queue_wait span opens now and closes when a runner picks the job up.
func (m *manager) submit(ctx context.Context, ds *table.Dataset, p JobParams) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("serve: server is shutting down")
	}
	if len(m.queue) >= m.cfg.MaxQueuedJobs {
		return nil, errQueueFull
	}
	m.nextID++
	j := &job{
		id:      fmt.Sprintf("j-%06d", m.nextID),
		params:  p,
		ds:      ds,
		attrs:   append([]string(nil), ds.Attrs...),
		rows:    ds.NumRows(),
		cols:    ds.NumCols(),
		state:   JobQueued,
		created: time.Now(),
	}
	if tr := obs.TraceFromContext(ctx); tr != nil {
		tr.Adopt()
		j.trace = tr
		j.rid = reqIDFrom(ctx)
		_, j.qspan = obs.Start(ctx, "queue_wait")
	}
	m.queue = append(m.queue, j)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.met.add(jobsSubmitted, 1)
	m.met.add(rowsIngested, int64(j.rows))
	m.evictLocked()
	m.cond.Signal()
	return j, nil
}

// queueFull is the advisory pre-ingestion check: when the queue is already
// at capacity there is no point parsing an upload that submit would reject.
// The authoritative check stays inside submit, under the same lock as the
// enqueue.
func (m *manager) queueFull() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) >= m.cfg.MaxQueuedJobs
}

// evictLocked drops the oldest finished jobs beyond the retention cap so a
// long-running server's job table stays bounded. Live (queued/running) jobs
// are never evicted.
func (m *manager) evictLocked() {
	if len(m.jobs) <= m.cfg.MaxRetainedJobs {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j == nil {
			continue
		}
		if len(m.jobs) > m.cfg.MaxRetainedJobs && j.finished() {
			delete(m.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == JobDone || j.state == JobFailed || j.state == JobCanceled
}

// get returns a job by ID.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list snapshots every retained job, newest first.
func (m *manager) list() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if j, ok := m.jobs[ids[i]]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// cancelJob cancels a queued or running job; finished jobs are removed from
// the table instead. Returns the resulting state, or false for unknown IDs.
func (m *manager) cancelJob(id string) (JobState, bool) {
	j, ok := m.get(id)
	if !ok {
		return "", false
	}
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.state = JobCanceled
		j.errMsg = "canceled before start"
		j.done = time.Now()
		j.ds = nil
		m.finishTraceLocked(j)
		j.mu.Unlock()
		// Free the admission slot right away; a runner that races the
		// removal and pops the job anyway skips it on the state check.
		m.mu.Lock()
		m.dropQueuedLocked(j)
		m.mu.Unlock()
		m.met.add(jobsCanceled, 1)
	case JobRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel() // runner observes the context error and finalizes state
		}
	default: // finished: DELETE removes the record entirely
		j.mu.Unlock()
		m.mu.Lock()
		delete(m.jobs, id)
		m.dropOrderLocked(id)
		m.mu.Unlock()
	}
	j.mu.Lock()
	st := j.state
	j.mu.Unlock()
	return st, true
}

// dropQueuedLocked removes a job from the waiting queue, if still there.
func (m *manager) dropQueuedLocked(j *job) {
	for i, q := range m.queue {
		if q == j {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return
		}
	}
}

// dropOrderLocked removes one id from the insertion-order list so deleted
// jobs do not accumulate there for the life of the process.
func (m *manager) dropOrderLocked(id string) {
	for i, o := range m.order {
		if o == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

// counts tallies retained jobs by state, for /metrics gauges.
func (m *manager) counts() map[JobState]int {
	out := map[JobState]int{}
	for _, s := range m.list() {
		out[s.State]++
	}
	return out
}

// runner is one job-execution goroutine. It pops admitted jobs off the
// bounded queue and runs each on the shared pool with a per-job cancelable
// context. A panic that escapes the engine despite the validation layers is
// converted into a failed job, never a crashed server.
func (m *manager) runner() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queue) == 0 { // closed and drained
			m.mu.Unlock()
			return
		}
		j := m.queue[0]
		m.queue = append(m.queue[:0], m.queue[1:]...)
		m.mu.Unlock()
		m.runJob(j)
	}
}

func (m *manager) runJob(j *job) {
	j.mu.Lock()
	if j.state != JobQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.qspan.End()
	m.met.observe(queueWait, j.started.Sub(j.created))
	ds, p := j.ds, j.params
	trace := j.trace
	j.mu.Unlock()
	defer cancel()

	// Re-root the detection context on the adopted trace so the engine's
	// fit/score spans land in the submit request's tree.
	dctx := ctx
	if trace != nil {
		dctx = obs.ContextWithSpan(ctx, trace.Root())
	}
	dctx, dspan := obs.Start(dctx, "detect")
	res, err := m.detect(dctx, ds, p)
	dspan.End()

	j.mu.Lock()
	j.done = time.Now()
	j.ds = nil // the dataset is only needed for the run; drop it early
	j.cancel = nil
	switch {
	case err != nil && (ctx.Err() != nil || m.baseCtx.Err() != nil):
		j.state = JobCanceled
		j.errMsg = err.Error()
		m.met.add(jobsCanceled, 1)
	case err != nil:
		j.state = JobFailed
		j.errMsg = err.Error()
		m.met.add(jobsFailed, 1)
	default:
		j.state = JobDone
		j.res = res
		m.met.add(jobsDone, 1)
		m.met.observe(detectPhase, res.Runtime)
	}
	m.finishTraceLocked(j)
	j.mu.Unlock()
}

// finishTraceLocked (j.mu held) finalizes an adopted trace: ends the
// queue-wait span if still open, snapshots the tree for
// GET /v1/jobs/{id}/trace, and offers the trace for slow-request retention.
func (m *manager) finishTraceLocked(j *job) {
	if j.trace == nil {
		return
	}
	j.qspan.End()
	j.trace.Finish()
	j.traceTree = j.trace.Tree()
	if m.retain != nil {
		m.retain(j.trace, "POST /v1/jobs", j.rid, j.trace.Duration())
	}
	j.trace = nil
	j.qspan = nil
}

// detect runs one job's detection on the shared pool, converting any stray
// panic into an error.
func (m *manager) detect(ctx context.Context, ds *table.Dataset, p JobParams) (res *zeroed.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: detection panicked: %v\n%s", r, debug.Stack())
		}
	}()
	cfg, err := m.jobConfig(p)
	if err != nil {
		return nil, err
	}
	return zeroed.New(cfg).DetectOn(ctx, m.pool, ds)
}
