package serve

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/zeroed"
)

// counter names one counter series; it indexes metrics.counts. What each
// counts is the help text of its row in families.
type counter int

const (
	jobsSubmitted counter = iota
	jobsDone
	jobsFailed
	jobsCanceled
	rowsIngested
	modelsFitted
	modelLoadFailures
	modelsQuarantined
	manifestWriteFailures
	manifestMissing
	requestDeadlines
	streamRequests
	streamRows
	refitsStarted
	refitsSwapped
	refitsFailed
	mappedUploads
	droppedColumns
	repairedCells
	nCounters
)

// phase names one unlabelled latency histogram; it indexes metrics.phases.
// Fit and score are separate phases: the whole point of the registry is
// that score stays orders of magnitude below fit. Queue wait is split out
// from handler time so queueing pressure shows apart from detection cost.
type phase int

const (
	queueWait phase = iota
	detectPhase
	fitPhase
	scorePhase
	repairPhase
	nPhases
)

// metrics holds the service's series. Counters and phase histograms are
// arrays indexed by the constants above; the two families whose label
// values arrive at run time (RED routes, fit stages) are map-backed.
// Per-state job gauges and per-model gauges are read from the job table
// and the registry at scrape time, so they are exact, not drift-prone
// increments. What /metrics prints, and in what order, is the families
// table.
type metrics struct {
	counts [nCounters]atomic.Int64
	phases [nPhases]histogram

	// RED: per-route request rate, error rate (via the code label), and
	// duration histograms, observed by the middleware around every request.
	red redTable

	// Per-stage fit wall-clock, accumulated from FitInfo.Stages across
	// fits. Fits are rare enough that a mutex is fine.
	stageMu      sync.Mutex
	stageSeconds map[string]float64
	stageOrder   []string
}

func (m *metrics) add(c counter, n int64) { m.counts[c].Add(n) }

func (m *metrics) observe(p phase, d time.Duration) { m.phases[p].observe(d) }

// latencyBuckets are the shared histogram bounds, in seconds. They span
// sub-10ms scores to multi-second fits on large uploads.
var latencyBuckets = [...]float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// histogram is a fixed-bucket Prometheus histogram. A mutex over a small
// array: observation cost is one lock and one increment, far below the
// request work it measures. The zero value is ready to use.
type histogram struct {
	mu     sync.Mutex
	counts [len(latencyBuckets) + 1]int64 // last is +Inf
	sum    time.Duration
	n      int64
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += d
	h.n++
	h.mu.Unlock()
}

// render writes the cumulative-bucket exposition for one histogram series.
// labels is the rendered label set without the le pair ("" or
// `route="POST /v1/jobs"`).
func (h *histogram) render(w io.Writer, name, labels string) {
	h.mu.Lock()
	counts, sum, n := h.counts, h.sum, h.n
	h.mu.Unlock()
	sep, set := "", ""
	if labels != "" {
		sep, set = ",", "{"+labels+"}"
	}
	var cum int64
	for i, b := range latencyBuckets {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b, cum)
	}
	cum += counts[len(latencyBuckets)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, set, sum.Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, n)
}

// routeRED holds one route's request counters by status code plus its
// duration histogram.
type routeRED struct {
	codes map[int]int64
	hist  histogram
}

// redTable is the per-route RED store. Routes are mux patterns (bounded by
// the route table, plus "unmatched"), so the map stays small.
type redTable struct {
	mu      sync.Mutex
	byRoute map[string]*routeRED
}

func (t *redTable) observe(route string, code int, dur time.Duration) {
	t.mu.Lock()
	if t.byRoute == nil {
		t.byRoute = map[string]*routeRED{}
	}
	rr := t.byRoute[route]
	if rr == nil {
		rr = &routeRED{codes: map[int]int64{}}
		t.byRoute[route] = rr
	}
	rr.codes[code]++
	t.mu.Unlock()
	rr.hist.observe(dur)
}

// each calls fn on every observed route in sorted order, under the table
// lock (histogram locks nest inside it; observe never holds both).
func (t *redTable) each(fn func(route string, rr *routeRED)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range slices.Sorted(maps.Keys(t.byRoute)) {
		fn(r, t.byRoute[r])
	}
}

// addFitStages folds one fit's per-stage breakdown into the cumulative
// stage counters.
func (m *metrics) addFitStages(stages []zeroed.StageTiming) {
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	if m.stageSeconds == nil {
		m.stageSeconds = map[string]float64{}
	}
	for _, st := range stages {
		if _, seen := m.stageSeconds[st.Name]; !seen {
			m.stageOrder = append(m.stageOrder, st.Name)
		}
		m.stageSeconds[st.Name] += st.Seconds
	}
}

// modelReading is one registered model's per-model gauges: its current
// version and, when a stream has touched it, its scorer's drift reading
// and refit health.
type modelReading struct {
	id      string
	version int
	stream  bool
	drift   stats.DriftGauges
	health  zeroed.RefitHealth
}

// modelReadings walks the registry once, reading each model's stream
// scorer under the stream table's lock, sorted by id for stable
// exposition output.
func (s *Server) modelReadings() []modelReading {
	list := s.reg.list()
	s.streams.mu.Lock()
	defer s.streams.mu.Unlock()
	out := make([]modelReading, len(list))
	for i, st := range list {
		out[i] = modelReading{id: st.ID, version: st.Version}
		if ss := s.streams.m[st.ID]; ss != nil {
			out[i].stream = true
			out[i].drift, _ = ss.Gauges()
			out[i].health = ss.RefitHealth()
		}
	}
	slices.SortFunc(out, func(a, b modelReading) int { return cmp.Compare(a.id, b.id) })
	return out
}

// scrape is what one /metrics render reads: the metrics, the job table's
// per-state counts and the per-model readings.
type scrape struct {
	m       *metrics
	byState map[JobState]int
	models  []modelReading
}

// family is one declared metric family: its name, Prometheus type and
// help text, and the writer of its samples. A family whose writer writes
// nothing is left out of the exposition.
type family struct {
	name, typ, help string
	write           sampler
}

// sampler writes one family's samples under the family's name.
type sampler func(w io.Writer, name string, s *scrape)

func count(c counter) sampler {
	return func(w io.Writer, name string, s *scrape) {
		fmt.Fprintf(w, "%s %d\n", name, s.m.counts[c].Load())
	}
}

// outcome is one label value of an outcome-labelled counter family.
type outcome struct {
	label string
	c     counter
}

func byOutcome(outs ...outcome) sampler {
	return func(w io.Writer, name string, s *scrape) {
		for _, o := range outs {
			fmt.Fprintf(w, "%s{outcome=%q} %d\n", name, o.label, s.m.counts[o.c].Load())
		}
	}
}

func latency(p phase) sampler {
	return func(w io.Writer, name string, s *scrape) { s.m.phases[p].render(w, name, "") }
}

// perStreamModel writes line's samples for every model that has a stream
// scorer.
func perStreamModel(line func(w io.Writer, name string, g modelReading)) sampler {
	return func(w io.Writer, name string, s *scrape) {
		for _, g := range s.models {
			if g.stream {
				line(w, name, g)
			}
		}
	}
}

// families is the /metrics surface, in exposition order.
var families = []family{
	{"zeroedd_build_info", "gauge", "Build identity of the running binary; always 1.",
		func(w io.Writer, name string, _ *scrape) {
			bm, pgo := readBuildMeta, 0
			if bm.pgo {
				pgo = 1
			}
			fmt.Fprintf(w, "%s{version=%q,go_version=%q,pgo=\"%d\"} 1\n", name, bm.version, bm.goVersion, pgo)
		}},
	{"zeroedd_http_requests_total", "counter", "HTTP requests served, by route pattern and status code.",
		func(w io.Writer, name string, s *scrape) {
			s.m.red.each(func(route string, rr *routeRED) {
				for _, c := range slices.Sorted(maps.Keys(rr.codes)) {
					fmt.Fprintf(w, "%s{route=%q,code=\"%d\"} %d\n", name, route, c, rr.codes[c])
				}
			})
		}},
	{"zeroedd_http_request_seconds", "histogram", "HTTP request duration by route pattern, queue wait included.",
		func(w io.Writer, name string, s *scrape) {
			s.m.red.each(func(route string, rr *routeRED) {
				rr.hist.render(w, name, fmt.Sprintf("route=%q", route))
			})
		}},
	{"zeroedd_queue_wait_seconds", "histogram", "Wait for a running slot, observed once per detect job, fit and drift refit.", latency(queueWait)},
	{"zeroedd_jobs_submitted_total", "counter", "Jobs accepted into the admission queue.", count(jobsSubmitted)},
	{"zeroedd_jobs_finished_total", "counter", "Jobs finished, by outcome.",
		byOutcome(outcome{"done", jobsDone}, outcome{"failed", jobsFailed}, outcome{"canceled", jobsCanceled})},
	{"zeroedd_jobs_current", "gauge", "Retained jobs by lifecycle state.",
		func(w io.Writer, name string, s *scrape) {
			for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled} {
				fmt.Fprintf(w, "%s{state=%q} %d\n", name, st, s.byState[st])
			}
		}},
	{"zeroedd_rows_ingested_total", "counter", "Data rows parsed from accepted uploads.", count(rowsIngested)},
	{"zeroedd_detect_seconds", "histogram", "Total detection wall-clock across completed jobs.", latency(detectPhase)},
	{"zeroedd_models_current", "gauge", "Fitted models currently registered.",
		func(w io.Writer, name string, s *scrape) { fmt.Fprintf(w, "%s %d\n", name, len(s.models)) }},
	{"zeroedd_models_fitted_total", "counter", "Models fitted and registered over the process lifetime.", count(modelsFitted)},
	{"zeroedd_model_load_failures_total", "counter", "Persisted artifacts skipped as corrupt or unreadable at startup.", count(modelLoadFailures)},
	{"zeroedd_models_quarantined_total", "counter", "Corrupt artifacts renamed aside to *.corrupt at startup.", count(modelsQuarantined)},
	{"zeroedd_manifest_write_failures_total", "counter", "Registry manifest writes that failed (soft: artifacts remain the source of truth).", count(manifestWriteFailures)},
	{"zeroedd_manifest_missing_total", "counter", "Manifest-committed artifact versions found missing or unloadable at startup.", count(manifestMissing)},
	{"zeroedd_request_deadlines_total", "counter", "Requests that exceeded the configured request timeout.", count(requestDeadlines)},
	{"zeroedd_fit_seconds", "histogram", "Fit-phase wall-clock across model fits.", latency(fitPhase)},
	{"zeroedd_fit_stage_seconds", "counter", "Fit wall-clock by pipeline stage, cumulative across fits.",
		func(w io.Writer, name string, s *scrape) {
			s.m.stageMu.Lock()
			defer s.m.stageMu.Unlock()
			for _, st := range s.m.stageOrder {
				fmt.Fprintf(w, "%s{stage=%q} %g\n", name, st, s.m.stageSeconds[st])
			}
		}},
	{"zeroedd_score_seconds", "histogram", "Score-phase wall-clock across model scoring calls.", latency(scorePhase)},
	{"zeroedd_stream_requests_total", "counter", "Streaming detection requests accepted.", count(streamRequests)},
	{"zeroedd_stream_rows_total", "counter", "Rows scored through streaming detection.", count(streamRows)},
	{"zeroedd_mapped_uploads_total", "counter", "Uploads whose header needed schema mapping (permutation or superset of the model schema).", count(mappedUploads)},
	{"zeroedd_dropped_columns_total", "counter", "Extra upload columns dropped by schema mapping.", count(droppedColumns)},
	{"zeroedd_repair_seconds", "histogram", "Repair-phase wall-clock across served repair calls (excludes the scoring pass).", latency(repairPhase)},
	{"zeroedd_repaired_cells_total", "counter", "Cells changed by served repair calls.", count(repairedCells)},
	{"zeroedd_model_refits_total", "counter", "Drift-triggered background refits, by outcome.",
		byOutcome(outcome{"started", refitsStarted}, outcome{"swapped", refitsSwapped}, outcome{"failed", refitsFailed})},
	{"zeroedd_model_version", "gauge", "Current hot-swapped version of each registered model.",
		func(w io.Writer, name string, s *scrape) {
			for _, g := range s.models {
				fmt.Fprintf(w, "%s{model=%q} %d\n", name, g.id, g.version)
			}
		}},
	{"zeroedd_model_refit_breaker", "gauge", "Per-model refit circuit breaker: 1 when open (refits disabled until a successful install).",
		perStreamModel(func(w io.Writer, name string, g modelReading) {
			open := 0
			if g.health.BreakerOpen {
				open = 1
			}
			fmt.Fprintf(w, "%s{model=%q} %d\n", name, g.id, open)
		})},
	{"zeroedd_model_refit_consecutive_failures", "gauge", "Consecutive failed refits since the last successful install (drives exponential backoff).",
		perStreamModel(func(w io.Writer, name string, g modelReading) {
			fmt.Fprintf(w, "%s{model=%q} %d\n", name, g.id, g.health.ConsecutiveFailures)
		})},
	{"zeroedd_model_drift", "gauge", "Streaming drift gauges per model: unseen-value rate and distribution shift against the fit-time snapshot.",
		perStreamModel(func(w io.Writer, name string, g modelReading) {
			fmt.Fprintf(w, "%s{model=%q,gauge=\"unseen_rate\"} %g\n", name, g.id, g.drift.UnseenRate)
			fmt.Fprintf(w, "%s{model=%q,gauge=\"shift\"} %g\n", name, g.id, g.drift.Shift)
			fmt.Fprintf(w, "%s{model=%q,gauge=\"rows\"} %d\n", name, g.id, g.drift.Rows)
		})},
}

// render writes the Prometheus text exposition: every family of the
// table that has samples, each under its # HELP and # TYPE lines.
func (m *metrics) render(w io.Writer, byState map[JobState]int, models []modelReading) {
	s := &scrape{m: m, byState: byState, models: models}
	var buf bytes.Buffer
	for _, f := range families {
		buf.Reset()
		f.write(&buf, f.name, s)
		if buf.Len() == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		w.Write(buf.Bytes())
	}
}
