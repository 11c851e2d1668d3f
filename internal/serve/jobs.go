package serve

import (
	"context"
	"errors"
	"fmt"
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
	cancel  context.CancelFunc // cancels the job's context; set at submit, never changed

	// trace is the submit request's trace, adopted by the job because it
	// outlives the request: the middleware leaves it open and the job
	// finalizes it. traceTree is the finished snapshot served by
	// GET /v1/jobs/{id}/trace.
	trace     *obs.Trace
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

// manager owns the job table and the one admission mechanism: every
// detect job, model fit and drift refit takes one of MaxConcurrentJobs
// running slots through acquire, and all slots draw on the one shared
// zeroed.Pool, so N clients can never oversubscribe the machine. Jobs and
// fits hold one of MaxQueuedJobs queue spots while they wait for a slot;
// refits hold none (each model runs at most one). Job and refit goroutines
// run under baseCtx and are counted in wg, so close cancels and awaits them.
type manager struct {
	cfg   Config
	pool  *zeroed.Pool
	met   *metrics
	slots chan struct{} // one token per running unit
	spots chan struct{} // one token per unit waiting for a slot

	// retain (set by serve.New) offers a finished job trace for
	// slow-request retention in the debug ring.
	retain func(tr *obs.Trace, route, rid string, dur time.Duration)

	mu     sync.Mutex
	closed bool
	jobs   map[string]*job
	order  []string // insertion order, for finished-job eviction
	nextID int64

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

func newManager(cfg Config, met *metrics) *manager {
	ctx, cancel := context.WithCancel(context.Background())
	return &manager{
		cfg:     cfg,
		pool:    zeroed.NewPool(cfg.Workers),
		met:     met,
		slots:   make(chan struct{}, cfg.MaxConcurrentJobs),
		spots:   make(chan struct{}, cfg.MaxQueuedJobs),
		jobs:    make(map[string]*job),
		baseCtx: ctx,
		stop:    cancel,
	}
}

// close cancels every job and refit, queued or running, and awaits them.
func (m *manager) close() {
	m.mu.Lock()
	m.closed = true
	m.stop()
	m.mu.Unlock()
	m.wg.Wait()
}

// Admission failures, mapped to responses by Server.writeBusy.
var (
	errQueueFull    = errors.New("serve: admission queue is full, retry later")
	errShuttingDown = errors.New("serve: server is shutting down")
)

// acquire waits for a running slot or for ctx to end, under a queue_wait
// span, and observes the wait once. The returned release frees the slot.
func (m *manager) acquire(ctx context.Context) (release func(), err error) {
	_, span := obs.Start(ctx, "queue_wait")
	start := time.Now()
	defer func() {
		span.End()
		m.met.observe(queueWait, time.Since(start))
	}()
	if err := ctx.Err(); err != nil {
		return nil, err // a unit canceled before it waits never takes a slot
	}
	select {
	case m.slots <- struct{}{}:
		return func() { <-m.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// enqueue takes a queue spot without waiting; <-m.spots gives it back.
func (m *manager) enqueue() error {
	select {
	case m.spots <- struct{}{}:
		return nil
	default:
		return errQueueFull
	}
}

// queueFull is the advisory pre-ingestion check: there is no point parsing
// an upload that enqueue would reject.
func (m *manager) queueFull() bool { return len(m.spots) == cap(m.spots) }

// admit is a fit's admission: a queue spot, then a slot awaited under the
// request's context, so the wait counts against the request timeout.
func (m *manager) admit(ctx context.Context) (release func(), err error) {
	if err := m.enqueue(); err != nil {
		return nil, err
	}
	defer func() { <-m.spots }()
	return m.acquire(ctx)
}

// spawn runs fn on its own goroutine under baseCtx, counted in wg, so
// close cancels it and waits for it. Once close has begun, fn runs on the
// caller's goroutine instead, where the canceled baseCtx ends it at once.
func (m *manager) spawn(fn func(ctx context.Context)) {
	m.mu.Lock()
	closed := m.closed
	if !closed {
		m.wg.Add(1)
	}
	m.mu.Unlock()
	if closed {
		fn(m.baseCtx)
		return
	}
	go func() {
		defer m.wg.Done()
		fn(m.baseCtx)
	}()
}

// submit admits a parsed dataset as a queued job, or rejects it when the
// queue is full. The job's goroutine waits in acquire for a slot; only
// waiting jobs hold a queue spot, and canceling one frees it at once.
//
// The submit request's trace is adopted here: the job outlives the request,
// so the middleware must not finish the trace at response time.
func (m *manager) submit(ctx context.Context, ds *table.Dataset, p JobParams) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errShuttingDown
	}
	if err := m.enqueue(); err != nil {
		return nil, err
	}
	m.nextID++
	jctx, cancel := context.WithCancel(m.baseCtx)
	j := &job{
		id:      fmt.Sprintf("j-%06d", m.nextID),
		params:  p,
		ds:      ds,
		attrs:   append([]string(nil), ds.Attrs...),
		rows:    ds.NumRows(),
		cols:    ds.NumCols(),
		state:   JobQueued,
		created: time.Now(),
		cancel:  cancel,
	}
	if tr := obs.TraceFromContext(ctx); tr != nil {
		tr.Adopt()
		j.trace = tr
		j.rid = reqIDFrom(ctx)
		// Re-root the job's context on the adopted trace so its queue wait
		// and the engine's fit/score spans land in the submit request's tree.
		jctx = obs.ContextWithSpan(jctx, tr.Root())
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.met.add(jobsSubmitted, 1)
	m.met.add(rowsIngested, int64(j.rows))
	m.evictLocked()
	m.wg.Add(1)
	go m.runJob(jctx, j)
	return j, nil
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
	if j.finished() { // DELETE removes a finished record entirely
		m.mu.Lock()
		delete(m.jobs, id)
		m.dropOrderLocked(id)
		m.mu.Unlock()
	} else {
		// A queued job frees its queue spot before DELETE returns; a running
		// one observes the canceled context and finalizes its own state.
		m.cancelQueued(j)
		j.cancel()
	}
	return j.snapshot().State, true
}

// cancelQueued finalizes a job that never started as canceled and gives its
// queue spot back. It does nothing once the job has left the queue.
func (m *manager) cancelQueued(j *job) {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return
	}
	j.state = JobCanceled
	j.errMsg = "canceled before start"
	j.done = time.Now()
	j.ds = nil
	m.finishTraceLocked(j)
	j.mu.Unlock()
	<-m.spots
	m.met.add(jobsCanceled, 1)
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

// runJob is one job's goroutine: wait for a slot, then detect on the shared
// pool. A panic that escapes the engine despite the validation layers
// becomes a failed job, never a crashed server.
func (m *manager) runJob(ctx context.Context, j *job) {
	defer m.wg.Done()
	defer j.cancel()
	release, err := m.acquire(ctx)
	if err != nil { // canceled while queued, by DELETE or by close
		m.cancelQueued(j)
		return
	}
	defer release()
	j.mu.Lock()
	if j.state != JobQueued { // DELETE won the race with the slot
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	ds, p := j.ds, j.params
	j.mu.Unlock()
	<-m.spots

	dctx, dspan := obs.Start(ctx, "detect")
	res, err := m.detect(dctx, ds, p)
	dspan.End()

	j.mu.Lock()
	j.done = time.Now()
	j.ds = nil // the dataset is only needed for the run; drop it early
	switch {
	case err != nil && ctx.Err() != nil:
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

// finishTraceLocked (j.mu held) finalizes an adopted trace: snapshots the
// tree for GET /v1/jobs/{id}/trace and offers it for slow-request retention.
func (m *manager) finishTraceLocked(j *job) {
	if j.trace == nil {
		return
	}
	j.trace.Finish()
	j.traceTree = j.trace.Tree()
	m.retain(j.trace, "POST /v1/jobs", j.rid, j.trace.Duration())
	j.trace = nil
}

// detect runs one job's detection on the shared pool, converting any stray
// panic into an error.
func (m *manager) detect(ctx context.Context, ds *table.Dataset, p JobParams) (res *zeroed.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: detection panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return zeroed.New(m.jobConfig(p)).DetectOn(ctx, m.pool, ds)
}
