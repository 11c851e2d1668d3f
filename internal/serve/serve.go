// Package serve exposes the ZeroED detection engine as a long-running
// HTTP/JSON job service — detection as a service over the sharded engine.
//
// Design contract ("validate at the boundary, errors not panics"): every
// request-reachable code path returns a structured JSON error instead of
// panicking, uploads are streamed straight into the columnar dataset's
// intern pools (never materializing a row-oriented copy) under byte, row,
// and column limits, and one bounded admission mechanism multiplexes every
// detect job, fit and drift refit onto one shared worker pool so concurrent
// clients cannot oversubscribe the machine. Detection results uphold the
// engine's determinism guarantee: a job with a fixed seed produces verdicts
// and scores bit-identical to a cmd/zeroed run on the same input, for any
// worker, shard, or concurrency configuration.
//
// Every upload endpoint is format-agnostic: bodies are CSV or NDJSON
// (negotiated from the Content-Type media type or forced with ?format=...)
// and enter through the shared table.RowSource ingest layer. Model-bound
// endpoints (score, stream, repair) accept headers that are permutations or
// supersets of the model's columns via table.MapColumns: extra columns are
// dropped (and reported), missing columns are a typed 400.
//
// API (see the README "Serving" section for the full reference):
//
//	POST   /v1/jobs          submit a CSV/NDJSON body -> 202 {id, state}
//	GET    /v1/jobs          list retained jobs, newest first
//	GET    /v1/jobs/{id}     job lifecycle status
//	GET    /v1/jobs/{id}/result   per-cell verdicts + scores (done jobs)
//	DELETE /v1/jobs/{id}     cancel a queued/running job; delete a finished one
//	POST   /v1/models        fit + register a model -> 201 {id, version, ...}
//	POST   /v1/models/{id}/score    score a CSV/NDJSON body synchronously
//	POST   /v1/models/{id}/stream   streaming detection with drift tracking
//	POST   /v1/models/{id}/repair   score with no refit, then apply repair
//	                         strategies: corrected table + cell change log
//	DELETE /v1/models/{id}   evict a model (artifacts reaped after in-flight
//	                         requests drain)
//	GET    /v1/jobs/{id}/trace    span tree of a finished job's pipeline
//	GET    /healthz          liveness
//	GET    /readyz           readiness (model-dir writability, model count)
//	GET    /metrics          Prometheus text metrics
//
// Observability: every request carries a correlation ID (X-Request-ID,
// honored or generated, echoed on the response and inside every error
// envelope), runs under a span tree covering queue wait, ingest, and each
// pipeline stage (?trace=1 embeds it in synchronous responses), and is
// counted in per-route RED metrics. Slow requests are retained as Chrome
// trace_event JSON, browsable through the gated DebugHandler.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// Config tunes the service. Zero values select serving defaults.
type Config struct {
	// Workers is the shared worker-pool size every concurrent job draws
	// from (0 = GOMAXPROCS). This is the machine-wide parallelism bound.
	Workers int
	// MaxConcurrentJobs bounds the pool-heavy units (detect jobs, fits,
	// refits) running at once (default 2). They share the one pool, so this
	// trades per-unit latency against cross-unit fairness, never total load.
	MaxConcurrentJobs int
	// MaxQueuedJobs bounds the jobs and fits waiting for a running slot
	// (default 16); beyond it they get 429 rather than an unbounded buffer.
	MaxQueuedJobs int
	// MaxUploadBytes caps a request body (default 32 MiB); larger uploads
	// are rejected with 413.
	MaxUploadBytes int64
	// MaxRows caps the parsed row count of one upload (default 1e6).
	MaxRows int
	// MaxCols caps the column count of one upload (default 256).
	MaxCols int
	// MaxRetainedJobs bounds the finished-job table (default 256); the
	// oldest finished jobs are evicted first. Live jobs are never evicted.
	MaxRetainedJobs int
	// MaxModels bounds the fitted-model registry (default 32); fits beyond
	// it are rejected with 409 until a model is DELETEd.
	MaxModels int
	// ModelDir, when set, persists fitted models as versioned artifacts
	// under this directory and restores them on startup. Empty keeps the
	// registry in-memory only.
	ModelDir string
	// StreamChunkRows is how many rows a /stream request scores per batch
	// (default 256). Verdicts are chunk-invariant, so this trades verdict
	// latency against per-batch overhead, never correctness. A stream
	// request may override it per call with ?chunk=N.
	StreamChunkRows int
	// DriftThreshold trips a background refit when a streaming model's
	// drift gauges (unseen-value rate or distribution shift) exceed it.
	// 0 disables drift-triggered refits; the gauges still export.
	DriftThreshold float64
	// DriftMinRows is the minimum streamed row count before the drift
	// threshold may trip (default 256).
	DriftMinRows int
	// RequestTimeout bounds one request's server-side work (fit, score,
	// stream). A request that exceeds it gets a typed 503 deadline error
	// with a Retry-After hint — never a generic 500. 0 disables.
	RequestTimeout time.Duration
	// RefitBackoff is the backoff after the first failed drift refit
	// (default 1s); consecutive failures double it (capped at 100x).
	RefitBackoff time.Duration
	// RefitBreakerAfter opens a per-model circuit breaker after this many
	// consecutive refit failures (default 5; negative disables). An open
	// breaker stops drift-triggered refits — the last good model keeps
	// serving — until a successful refit or operator action installs a
	// fresh model.
	RefitBreakerAfter int
	// Logger receives the structured access, panic, and model-lifecycle
	// log lines (nil = text to stderr).
	Logger *slog.Logger
	// TraceDir, when set, dumps each retained slow-request trace as a
	// Chrome trace_event JSON file under this directory.
	TraceDir string
	// TraceSlow is the retention threshold: requests at or above this
	// duration keep their trace in the debug ring (and TraceDir). 0 retains
	// every request's trace.
	TraceSlow time.Duration
	// TraceRing bounds how many slow-request traces the debug ring retains
	// (default 32).
	TraceRing int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentJobs <= 0 {
		c.MaxConcurrentJobs = 2
	}
	if c.MaxQueuedJobs <= 0 {
		c.MaxQueuedJobs = 16
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 32 << 20
	}
	if c.MaxRows <= 0 {
		c.MaxRows = 1_000_000
	}
	if c.MaxCols <= 0 {
		c.MaxCols = 256
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 256
	}
	if c.MaxModels <= 0 {
		c.MaxModels = 32
	}
	if c.StreamChunkRows <= 0 {
		c.StreamChunkRows = 256
	}
	if c.DriftMinRows <= 0 {
		c.DriftMinRows = 256
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 32
	}
	return c
}

// Server is the detection service: an http.Handler plus the job manager and
// fitted-model registry behind it.
type Server struct {
	cfg     Config
	log     *slog.Logger
	mgr     *manager
	reg     *registry
	met     *metrics
	mux     *http.ServeMux
	ring    *obs.Ring
	streams streamTable
}

// New creates a service with any persisted model artifacts restored from
// Config.ModelDir. Tracing is enabled process-wide here: the engine's
// bit-identity contract makes span collection a pure observer, so the
// service always traces.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	obs.SetEnabled(true)
	log := newLogger(cfg)
	met := &metrics{}
	s := &Server{
		cfg: cfg, log: log, met: met,
		mgr:  newManager(cfg, met),
		reg:  newRegistry(cfg, met, log),
		ring: obs.NewRing(cfg.TraceRing),
	}
	s.mgr.retain = s.retainTrace
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/models", s.handleModelFit)
	mux.HandleFunc("GET /v1/models", s.handleModelList)
	mux.HandleFunc("GET /v1/models/{id}", s.handleModelInfo)
	mux.HandleFunc("POST /v1/models/{id}/score", s.handleModelScore)
	mux.HandleFunc("POST /v1/models/{id}/stream", s.handleModelStream)
	mux.HandleFunc("POST /v1/models/{id}/repair", s.handleModelRepair)
	mux.HandleFunc("DELETE /v1/models/{id}", s.handleModelDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler: the observability middleware
// (request IDs, tracing, RED metrics, access log, last-resort panic
// recovery, request timeout) wrapped around the route mux.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(s.serveHTTP)
}

// Close cancels every job and drift refit and waits for them to end.
func (s *Server) Close() { s.mgr.close() }

// apiError is the structured error envelope every failure path returns.
// RequestID carries the request's correlation ID so a client can quote one
// string and an operator can grep straight to the matching log lines.
type apiError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // client gone is not a server error
}

// writeErr emits the structured error envelope. The request resolves the
// correlation ID; every error path passes it so no envelope ships without
// one.
func writeErr(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	writeJSON(w, status, map[string]apiError{"error": apiErrorFor(r, code, msg)})
}

// apiErrorFor builds an envelope body stamped with the request's ID — used
// directly by the stream endpoint, whose in-band NDJSON error lines bypass
// writeErr.
func apiErrorFor(r *http.Request, code, msg string) apiError {
	var rid string
	if r != nil {
		rid = reqIDFrom(r.Context())
	}
	return apiError{Code: code, Message: msg, RequestID: rid}
}

// retryAfterQueue is the backpressure retry hint, in seconds: a queue spot
// frees as soon as a waiting unit takes a running slot.
const retryAfterQueue = 1

// writeBusy is the single admission-failure path. A full queue, for jobs
// and fits alike, is the one 429 with a Retry-After hint. A closing server
// is a 503, a slot wait cut by the request deadline the typed deadline 503,
// and a client that went away gets nothing.
func (s *Server) writeBusy(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterQueue))
		writeErr(w, r, http.StatusTooManyRequests, "queue_full", err.Error())
	case errors.Is(err, errShuttingDown):
		writeErr(w, r, http.StatusServiceUnavailable, "shutting_down", err.Error())
	case s.classifyFailure(r) == failDeadline:
		s.writeDeadline(w, r)
	}
}

// retryAfterDeadline hints how long a deadline-exceeded client should wait
// before retrying, in seconds.
const retryAfterDeadline = 2

// writeDeadline is the single request-timeout path: a typed 503 with a
// Retry-After hint. The deadline is a capacity signal (the work was sound,
// the box was slow), so it must never surface as a generic 500.
func (s *Server) writeDeadline(w http.ResponseWriter, r *http.Request) {
	s.met.add(requestDeadlines, 1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterDeadline))
	writeErr(w, r, http.StatusServiceUnavailable, "deadline",
		fmt.Sprintf("request exceeded the %s server-side deadline", s.cfg.RequestTimeout))
}

// requestFailure classifies a handler error against the request context:
// deadline (write the typed 503), client gone (write nothing), or neither
// (the caller maps its own domain errors).
type requestFailure int

const (
	failOther requestFailure = iota
	failDeadline
	failClientGone
)

func (s *Server) classifyFailure(r *http.Request) requestFailure {
	switch {
	case errors.Is(r.Context().Err(), context.DeadlineExceeded):
		return failDeadline
	case r.Context().Err() != nil:
		return failClientGone
	default:
		return failOther
	}
}

// writeIngestErr maps an upload-ingestion failure to its structured
// response: 413 for oversized bodies, a typed 400 "missing_columns" when a
// model-bound upload lacks schema columns, and 400 "bad_upload" for
// everything malformed.
func writeIngestErr(w http.ResponseWriter, r *http.Request, err error, maxBytes int64) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, r, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("upload exceeds the %d-byte limit", maxBytes))
		return
	}
	var missing *table.MissingColumnsError
	if errors.As(err, &missing) {
		writeErr(w, r, http.StatusBadRequest, "missing_columns", err.Error())
		return
	}
	writeErr(w, r, http.StatusBadRequest, "bad_upload", err.Error())
}

// jobConfig resolves a job's or fit's zeroed configuration. It mirrors
// cmd/zeroed's flag handling so that equal (input, seed, knobs) pairs
// produce bit-equal verdicts across the CLI and the service. parseParams,
// the only source of JobParams, has already validated the profile name.
func (m *manager) jobConfig(p JobParams) zeroed.Config {
	profile, _ := llm.ProfileByName(p.Profile)
	return zeroed.Config{
		LabelRate: p.LabelRate,
		CorrK:     p.CorrK,
		Threshold: p.Threshold,
		Seed:      p.Seed,
		Workers:   m.cfg.Workers,
		Profile:   profile,
	}
}

// parseParams validates the submit-time query parameters.
func parseParams(r *http.Request) (JobParams, error) {
	q := r.URL.Query()
	p := JobParams{
		Name:      q.Get("name"),
		Seed:      1,
		LabelRate: 0.05,
		CorrK:     2,
		Threshold: 0, // zeroed default (0.4) via withDefaults
		Profile:   "Qwen2.5-72b",
	}
	if p.Name == "" {
		p.Name = "upload"
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad seed %q: %v", v, err)
		}
		p.Seed = n
	}
	if v := q.Get("label_rate"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 || f > 1 {
			return p, fmt.Errorf("bad label_rate %q: must be a float in (0, 1]", v)
		}
		p.LabelRate = f
	}
	if v := q.Get("corr"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 64 {
			return p, fmt.Errorf("bad corr %q: must be an int in [0, 64]", v)
		}
		p.CorrK = n
	}
	if v := q.Get("threshold"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 || f >= 1 {
			return p, fmt.Errorf("bad threshold %q: must be a float in (0, 1)", v)
		}
		p.Threshold = f
	}
	if v := q.Get("model"); v != "" {
		if _, ok := llm.ProfileByName(v); !ok {
			return p, fmt.Errorf("unknown model %q", v)
		}
		p.Profile = v
	}
	return p, nil
}

// requestFormat resolves an upload's ingest format: the ?format query
// parameter wins; otherwise the Content-Type media type decides, parsed
// with mime.ParseMediaType (inside table.FormatForMediaType) so parameters
// like "; charset=utf-8" never defeat the match. Absent or unrecognized
// media types default to CSV, the historical wire format.
func requestFormat(r *http.Request) (string, error) {
	if f := r.URL.Query().Get("format"); f != "" {
		if f != table.FormatCSV && f != table.FormatNDJSON {
			return "", fmt.Errorf("unknown format %q (want %s or %s)", f, table.FormatCSV, table.FormatNDJSON)
		}
		return f, nil
	}
	if f, ok := table.FormatForMediaType(r.Header.Get("Content-Type")); ok {
		return f, nil
	}
	return table.FormatCSV, nil
}

// uploadSource opens the negotiated row source over a request body. With a
// nil schema the source is self-describing (jobs, fits). With a model
// schema (score, stream, repair) rows arrive projected onto it: a CSV
// header may be a permutation or superset of the model's columns — extras
// are dropped and reported in the returned mapping, missing columns are a
// typed *table.MissingColumnsError — and NDJSON lines bind directly to the
// schema (arrays in model order, objects keyed by attribute name). On
// every route the raw header, before any mapping, counts against
// -max-cols.
func (s *Server) uploadSource(r *http.Request, body io.Reader, schema []string) (table.RowSource, *table.ColumnMapping, error) {
	format, err := requestFormat(r)
	if err != nil {
		return nil, nil, err
	}
	var src table.RowSource
	if format == table.FormatNDJSON {
		src, err = table.NewNDJSONSource(body, schema)
	} else {
		src, err = table.NewCSVSource(body)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := checkWidth(src, s.cfg.MaxCols); err != nil {
		return nil, nil, err
	}
	if format == table.FormatCSV && schema != nil {
		return table.MapSource(schema, src)
	}
	return src, nil, nil
}

// errTooWide marks an upload header wider than the column cap. Every
// route answers it with a 400 bad_upload, streams included.
var errTooWide = errors.New("too many columns")

// checkWidth rejects a source whose header is wider than maxCols (0: no
// cap).
func checkWidth(src table.RowSource, maxCols int) error {
	if n := len(src.Header()); maxCols > 0 && n > maxCols {
		return fmt.Errorf("serve: %d columns exceeds the limit of %d: %w", n, maxCols, errTooWide)
	}
	return nil
}

// ingestSource drains a table.Stream — rows are interned into the
// dataset's dictionaries as they are decoded, never materialized as a
// record set — enforcing the row limit (0: none) as the stream advances.
// Every malformed input (ragged rows, quoting or JSON errors, oversized
// shapes, empty data) comes back as an error, not a panic.
func ingestSource(st *table.Stream, maxRows int) (*table.Dataset, error) {
	ds := st.Dataset()
	const chunk = 4096
	for {
		_, err := st.ReadChunk(chunk)
		if maxRows > 0 && ds.NumRows() > maxRows {
			return nil, fmt.Errorf("serve: row count exceeds the limit of %d", maxRows)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if ds.NumRows() == 0 {
		return nil, fmt.Errorf("serve: dataset has no data rows")
	}
	return ds, nil
}

// ingestUpload is the shared entry point for the whole-body endpoints:
// negotiate the format, open the source and stream it in under limits.
// With a nil into (jobs, fits) the body describes itself and loads into a
// fresh dataset named name. Score and repair pass a model's Bind: rows are
// mapped onto its schema and each cell is interned once, straight into the
// model's dictionaries, so scoring needs no second pass.
func (s *Server) ingestUpload(name string, r *http.Request, body io.Reader, into *table.Dataset) (*table.Dataset, *table.ColumnMapping, error) {
	_, span := obs.Start(r.Context(), "ingest")
	defer span.End()
	var schema []string
	if into != nil {
		schema = into.Attrs
	}
	src, mapping, err := s.uploadSource(r, body, schema)
	if err != nil {
		return nil, nil, err
	}
	var st *table.Stream
	if into == nil {
		st = table.NewStream(name, src)
	} else if st, err = table.NewStreamInto(into, src); err != nil {
		return nil, nil, err
	}
	ds, err := ingestSource(st, s.cfg.MaxRows)
	if err != nil {
		return nil, nil, err
	}
	span.SetInt("rows", int64(ds.NumRows()))
	span.SetInt("cols", int64(ds.NumCols()))
	if mapping != nil && len(mapping.Dropped) > 0 {
		s.met.add(mappedUploads, 1)
		s.met.add(droppedColumns, int64(len(mapping.Dropped)))
	}
	return ds, mapping, nil
}

// ingestUnit is the shared upload front of jobs and fits: reject a full
// queue before the upload parse, then ingest the body. The queue spot is
// taken after ingest, so a slow upload holds none. On failure it has
// written the response and returns nil.
func (s *Server) ingestUnit(w http.ResponseWriter, r *http.Request, name string) *table.Dataset {
	if s.mgr.queueFull() {
		s.writeBusy(w, r, errQueueFull)
		return nil
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	ds, _, err := s.ingestUpload(name, r, body, nil)
	if err != nil {
		writeIngestErr(w, r, err, s.cfg.MaxUploadBytes)
	}
	return ds
}

// handleSubmit accepts a CSV or NDJSON upload and enqueues a detection job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	params, err := parseParams(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_param", err.Error())
		return
	}
	ds := s.ingestUnit(w, r, params.Name)
	if ds == nil {
		return
	}
	j, err := s.mgr.submit(r.Context(), ds, params)
	if err != nil {
		s.writeBusy(w, r, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.list()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeErr(w, r, http.StatusNotFound, "not_found", "unknown job id")
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// JobResult is the wire form of a finished job's verdicts.
type JobResult struct {
	ID      string   `json:"id"`
	Name    string   `json:"name"`
	Attrs   []string `json:"attrs"`
	Rows    int      `json:"rows"`
	Flagged int      `json:"flagged"`
	// Pred[i][j] is the verdict for cell (i, j); Scores[i][j] the error
	// probability. Scores round-trip through JSON bit-exactly (Go encodes
	// the shortest representation that decodes to the same float64).
	Pred   [][]bool    `json:"pred"`
	Scores [][]float64 `json:"scores,omitempty"`

	SampledCells  int       `json:"sampled_cells"`
	TrainingCells int       `json:"training_cells"`
	AugmentedErrs int       `json:"augmented_errs"`
	CriteriaCount int       `json:"criteria_count"`
	Usage         llm.Usage `json:"usage"`
	RuntimeMS     int64     `json:"runtime_ms"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeErr(w, r, http.StatusNotFound, "not_found", "unknown job id")
		return
	}
	j.mu.Lock()
	state, res, errMsg := j.state, j.res, j.errMsg
	id, name, attrs := j.id, j.params.Name, j.attrs
	j.mu.Unlock()
	switch state {
	case JobQueued, JobRunning:
		writeErr(w, r, http.StatusConflict, "not_done", fmt.Sprintf("job is %s", state))
		return
	case JobFailed, JobCanceled:
		writeErr(w, r, http.StatusConflict, fmt.Sprintf("job_%s", state), errMsg)
		return
	}
	out := JobResult{
		ID:            id,
		Name:          name,
		Attrs:         attrs,
		Rows:          len(res.Pred),
		Pred:          res.Pred,
		SampledCells:  res.SampledCells,
		TrainingCells: res.TrainingCells,
		AugmentedErrs: res.AugmentedErrs,
		CriteriaCount: res.CriteriaCount,
		Usage:         res.Usage,
		RuntimeMS:     res.Runtime.Milliseconds(),
	}
	if r.URL.Query().Get("scores") != "0" {
		out.Scores = res.Scores
	}
	for _, row := range res.Pred {
		for _, p := range row {
			if p {
				out.Flagged++
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	state, ok := s.mgr.cancelJob(id)
	if !ok {
		writeErr(w, r, http.StatusNotFound, "not_found", "unknown job id")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": state})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "time": time.Now().UTC().Format(time.RFC3339)})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.render(w, s.mgr.counts(), s.modelReadings())
}
