package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// The model registry: fit once over the wire, score forever. POST /v1/models
// runs the expensive Fit phase synchronously (admitted like a detect job,
// through the manager's queue and running slots) and registers the fitted
// model under an ID — persisted as a versioned artifact when
// Config.ModelDir is set, and reloaded from there on startup. POST /v1/models/{id}/score then scores
// small CSV bodies against the registered model with no criteria induction,
// sampling, labeling, or training — the p50 score latency sits orders of
// magnitude below a fit job (tracked by the score-latency metric).

// artifactExt is the on-disk suffix of persisted model artifacts.
const artifactExt = ".zedm"

// artifactFile names the on-disk artifact for one model version: the
// original fit keeps the bare "id.zedm" name (backwards compatible with
// pre-versioning artifacts), refit successors append ".vN". Old versions
// are retained on disk for rollback until the model is deleted.
func artifactFile(id string, version int) string {
	if version <= 1 {
		return id + artifactExt
	}
	return fmt.Sprintf("%s.v%d%s", id, version, artifactExt)
}

// parseArtifactName splits an artifact filename into (id, version).
func parseArtifactName(name string) (string, int, bool) {
	if !strings.HasSuffix(name, artifactExt) {
		return "", 0, false
	}
	base := strings.TrimSuffix(name, artifactExt)
	if i := strings.LastIndex(base, ".v"); i > 0 {
		if v, err := strconv.Atoi(base[i+2:]); err == nil && v >= 2 {
			return base[:i], v, true
		}
	}
	return base, 1, true
}

// regEntry is one registered fitted model at one version. All fields are
// immutable after registration; a hot-swap replaces the whole entry under
// the registry lock, so in-flight requests holding the old entry keep
// scoring on the old model untouched.
type regEntry struct {
	id      string
	name    string
	m       *zeroed.Model
	created time.Time
	bytes   int
	version int
}

// registry owns the fitted-model table. It admits nothing: fits and refits
// take their running slot from the manager, like detect jobs.
//
// Pinning: handlers that score against an entry hold a per-id pin
// (acquire/release) for the duration of the request. DELETE evicts the id
// from the table immediately — new requests 404 — but defers removal of the
// on-disk artifacts until the last pin drains, so an in-flight score or
// stream never races the files out from under a concurrent reload or
// rollback.
type registry struct {
	mu     sync.Mutex
	models map[string]*regEntry
	order  []string // insertion order, oldest first
	nextID int64
	max    int
	dir    string
	log    *slog.Logger
	pins   map[string]int      // in-flight scoring requests per id
	doomed map[string][]string // deleted-while-pinned id -> artifact paths
}

func newRegistry(cfg Config, met *metrics, log *slog.Logger) *registry {
	r := &registry{
		models: make(map[string]*regEntry),
		max:    cfg.MaxModels,
		dir:    cfg.ModelDir,
		log:    log,
		pins:   make(map[string]int),
		doomed: make(map[string][]string),
	}
	r.loadDir(met)
	return r
}

// loadDir restores persisted artifacts from the model directory: for each
// model id, the highest intact version wins. Recovery unions the manifest
// (the commit ledger) with a directory scan — the atomic save protocol
// guarantees every scanned artifact is complete-or-absent, and the manifest
// makes a missing or corrupt committed version loudly observable. Corrupt
// files are quarantined to *.corrupt (renamed once, counted once — later
// boots skip them entirely), stranded *.tmp files from a crash mid-save are
// reaped, and the manifest is rewritten to match what actually restored.
func (r *registry) loadDir(met *metrics) {
	if r.dir == "" {
		return
	}
	entries, err := os.ReadDir(r.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return // directory absent: first boot, nothing to restore
	}
	if err != nil {
		// Unreadable directory is NOT a first boot — surface it in the
		// load-failure metric instead of silently serving an empty registry.
		r.log.Error("model dir unreadable", "dir", r.dir, "err", err)
		met.add(modelLoadFailures, 1)
		return
	}
	sweepTmp(r.dir, entries, r.log)
	man, err := loadManifest(r.dir)
	if err != nil {
		// A corrupt manifest never blocks recovery: the artifacts are the
		// source of truth and the scan below restores from them alone.
		r.log.Error("manifest unreadable, recovering from directory scan", "dir", r.dir, "err", err)
		met.add(manifestWriteFailures, 1)
		man = &manifest{Models: map[string]int{}}
	}
	// Group artifacts by model id: each id may carry several versions
	// (id.zedm is version 1, id.vN.zedm a refit successor). The registry
	// restores the highest version that decodes, falling back to older ones
	// — that is the on-disk rollback story for a corrupt refit artifact.
	versions := make(map[string][]int)
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		id, v, ok := parseArtifactName(e.Name())
		if !ok {
			continue
		}
		if _, seen := versions[id]; !seen {
			ids = append(ids, id)
		}
		versions[id] = append(versions[id], v)
	}
	// Manifest entries with no surviving file still advance the scan: the
	// per-version load below reports them as missing.
	for id := range man.Models {
		if _, seen := versions[id]; !seen {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	// Advance the ID counter past EVERY artifact on disk — including files
	// skipped below as corrupt or beyond capacity — so a freshly assigned
	// ID can never collide with (and overwrite) an existing artifact.
	for _, id := range ids {
		if n, err := strconv.ParseInt(strings.TrimPrefix(id, "m-"), 10, 64); err == nil && n > r.nextID {
			r.nextID = n
		}
	}
	for _, id := range ids {
		if len(r.models) >= r.max {
			break
		}
		vs := versions[id]
		sort.Sort(sort.Reverse(sort.IntSlice(vs)))
		restored := 0
		for _, v := range vs {
			path := filepath.Join(r.dir, artifactFile(id, v))
			m, err := model.LoadFile(path)
			if err != nil {
				met.add(modelLoadFailures, 1)
				if model.IsCorrupt(err) {
					quarantine(path, met, r.log)
				}
				continue // fall back to the previous version, if any
			}
			fi, _ := os.Stat(path)
			size := 0
			created := time.Now()
			if fi != nil {
				size = int(fi.Size())
				created = fi.ModTime() // approximate the original fit time
			}
			r.models[id] = &regEntry{id: id, name: id, m: m, created: created, bytes: size, version: v}
			r.order = append(r.order, id)
			restored = v
			break
		}
		// The manifest said version N was committed; restoring anything
		// less means a committed artifact vanished or rotted — say so
		// explicitly instead of silently serving the older version.
		if committed := man.Models[id]; committed > restored {
			r.log.Error("manifest committed version not recovered",
				"model", id, "committed", committed, "recovered", restored)
			met.add(manifestMissing, 1)
		}
	}
	// Re-anchor the ledger to reality: recovery (quarantines, fallbacks)
	// may have changed which versions are live. Skipped when the ledger
	// already matches — a clean boot performs no writes, so an armed
	// disk-write failpoint fires at the operation under test, not here.
	stale := len(man.Models) != len(r.models)
	for id, e := range r.models {
		if man.Models[id] != e.version {
			stale = true
		}
	}
	if stale {
		r.writeManifest(met)
	}
}

// full reports whether the registry is at capacity.
func (r *registry) full() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.models) >= r.max
}

// add registers a fitted model, re-checking capacity under the lock.
func (r *registry) add(name string, m *zeroed.Model, bytes int) (*regEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.models) >= r.max {
		return nil, fmt.Errorf("serve: model registry is full (%d models); DELETE one first", r.max)
	}
	r.nextID++
	e := &regEntry{
		id:      fmt.Sprintf("m-%06d", r.nextID),
		name:    name,
		m:       m,
		created: time.Now(),
		bytes:   bytes,
		version: m.Lineage().Version,
	}
	r.models[e.id] = e
	r.order = append(r.order, e.id)
	return e, nil
}

func (r *registry) get(id string) (*regEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[id]
	return e, ok
}

// acquire pins a model for one in-flight scoring request: as long as the
// pin is held, a concurrent DELETE evicts the id from the table but leaves
// the on-disk artifacts alone. Every acquire must be paired with release.
func (r *registry) acquire(id string) (*regEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[id]
	if !ok {
		return nil, false
	}
	r.pins[id]++
	return e, true
}

// release drops one pin. When the last pin of a deleted model drains, its
// deferred artifact files are removed (outside the lock).
func (r *registry) release(id string) {
	r.mu.Lock()
	var reap []string
	if r.pins[id]--; r.pins[id] <= 0 {
		delete(r.pins, id)
		reap = r.doomed[id]
		delete(r.doomed, id)
	}
	r.mu.Unlock()
	for _, path := range reap {
		_ = os.Remove(path)
	}
}

// swap replaces a model's registry entry with a refit successor — the
// hot-swap point. The entry pointer is replaced whole under the lock:
// requests that already acquired the old entry finish on the old model,
// requests arriving after the swap score on the successor. Returns false
// when the model was deleted while the refit ran; the caller discards the
// successor.
func (r *registry) swap(id string, m *zeroed.Model, bytes int) (*regEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.models[id]
	if !ok {
		return nil, false
	}
	e := &regEntry{
		id:      id,
		name:    old.name,
		m:       m,
		created: old.created,
		bytes:   bytes,
		version: m.Lineage().Version,
	}
	r.models[id] = e
	return e, true
}

// remove evicts a model from the registry. It returns the artifact paths
// the caller must delete — empty when in-flight requests still pin the id,
// in which case release reaps them after the last pin drains.
func (r *registry) remove(id string) ([]string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[id]
	if !ok {
		return nil, false
	}
	delete(r.models, id)
	for i, o := range r.order {
		if o == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	var paths []string
	if r.dir != "" {
		for v := 1; v <= e.version; v++ {
			paths = append(paths, filepath.Join(r.dir, artifactFile(id, v)))
		}
	}
	if r.pins[id] > 0 {
		r.doomed[id] = paths
		return nil, true
	}
	return paths, true
}

// list snapshots every registered model, newest first.
func (r *registry) list() []ModelStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ModelStatus, 0, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		if e, ok := r.models[r.order[i]]; ok {
			out = append(out, e.status())
		}
	}
	return out
}

func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.models)
}

// ModelStatus is the wire form of one registered model.
type ModelStatus struct {
	ID    string   `json:"id"`
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
	// Version counts hot-swapped refits: 1 is the original fit, each
	// drift-triggered refit that swaps in bumps it.
	Version   int   `json:"version"`
	RefitRows int   `json:"refit_rows,omitempty"`
	FitRows   int   `json:"fit_rows"`
	Seed      int64 `json:"seed"`
	// Degenerate marks a single-class fit that replays labels instead of
	// running a trained detector.
	Degenerate    bool      `json:"degenerate,omitempty"`
	CriteriaCount int       `json:"criteria_count"`
	TrainingCells int       `json:"training_cells"`
	FitMS         int64     `json:"fit_ms"`
	ArtifactBytes int       `json:"artifact_bytes,omitempty"`
	Created       time.Time `json:"created"`
}

func (e *regEntry) status() ModelStatus {
	info := e.m.Info()
	return ModelStatus{
		ID:            e.id,
		Name:          e.name,
		Attrs:         e.m.Attrs(),
		Version:       e.version,
		RefitRows:     e.m.Lineage().RefitRows,
		FitRows:       e.m.FitRows(),
		Seed:          e.m.Config().Seed,
		Degenerate:    e.m.Degenerate(),
		CriteriaCount: info.CriteriaCount,
		TrainingCells: info.TrainingCells,
		FitMS:         info.FitRuntime.Milliseconds(),
		ArtifactBytes: e.bytes,
		Created:       e.created,
	}
}

// ScoreResult is the wire form of one synchronous scoring call.
type ScoreResult struct {
	ModelID string   `json:"model_id"`
	Attrs   []string `json:"attrs"`
	Rows    int      `json:"rows"`
	Flagged int      `json:"flagged"`
	// Pred[i][j] is the verdict for cell (i, j); Scores[i][j] the error
	// probability, round-tripping through JSON bit-exactly.
	Pred   [][]bool    `json:"pred"`
	Scores [][]float64 `json:"scores,omitempty"`
	// DroppedCols lists upload columns outside the model schema that the
	// header mapping dropped before scoring.
	DroppedCols []string `json:"dropped_cols,omitempty"`
	ScoreMS     int64    `json:"score_ms"`
	// Trace is the request's span tree, embedded when the client asked for
	// it with ?trace=1.
	Trace *obs.Node `json:"trace,omitempty"`
}

// handleModelFit runs the Fit phase on an uploaded CSV and registers the
// fitted model. The fit is synchronous — the response carries the ready
// model's ID — and canceled if the client disconnects. Like a detect job it
// takes a queue spot, then waits for a running slot within its deadline.
func (s *Server) handleModelFit(w http.ResponseWriter, r *http.Request) {
	params, err := parseParams(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_param", err.Error())
		return
	}
	if s.reg.full() {
		writeErr(w, r, http.StatusConflict, "registry_full",
			fmt.Sprintf("model registry holds the maximum of %d models; DELETE one first", s.cfg.MaxModels))
		return
	}
	ds := s.ingestUnit(w, r, params.Name)
	if ds == nil {
		return
	}
	release, err := s.mgr.admit(r.Context())
	if err != nil {
		s.writeBusy(w, r, err)
		return
	}
	defer release()
	m, err := s.fitModel(r, s.mgr.jobConfig(params), ds)
	if err != nil {
		switch s.classifyFailure(r) {
		case failDeadline:
			s.writeDeadline(w, r)
			return
		case failClientGone:
			return // client gone; nothing useful to write
		}
		if errors.Is(err, errInternalPanic) {
			writeErr(w, r, http.StatusInternalServerError, "internal", "internal error during fit")
			return
		}
		writeErr(w, r, http.StatusBadRequest, "fit_failed", err.Error())
		return
	}
	_, encSpan := obs.Start(r.Context(), "encode")
	data, err := model.Encode(m)
	encSpan.SetInt("bytes", int64(len(data)))
	encSpan.End()
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "encode_failed", err.Error())
		return
	}
	e, err := s.reg.add(params.Name, m, len(data))
	if err != nil {
		writeErr(w, r, http.StatusConflict, "registry_full", err.Error())
		return
	}
	if s.cfg.ModelDir != "" {
		_, perSpan := obs.Start(r.Context(), "persist")
		err := fpFitPersist.Eval()
		if err == nil {
			err = s.persistArtifact(artifactFile(e.id, e.version), data)
		}
		perSpan.End()
		if err != nil {
			// Roll the registration back completely: a failure after the
			// commit point (rename) may have left the artifact on disk, and
			// a half-registered model must not resurrect on restart.
			if paths, ok := s.reg.remove(e.id); ok {
				for _, p := range paths {
					_ = os.Remove(p)
				}
			}
			writeErr(w, r, http.StatusInternalServerError, "persist_failed", err.Error())
			return
		}
		s.reg.writeManifest(s.met)
	}
	s.met.add(modelsFitted, 1)
	s.met.observe(fitPhase, m.Info().FitRuntime) // the fit alone, not encode/persist
	s.met.addFitStages(m.Info().Stages)
	out := e.status()
	if wantTrace(r) {
		writeJSON(w, http.StatusCreated, struct {
			ModelStatus
			Trace *obs.Node `json:"trace,omitempty"`
		}{out, traceTree(r)})
		return
	}
	writeJSON(w, http.StatusCreated, out)
}

// errInternalPanic marks a recovered server-side panic: the client gets a
// generic 500, the stack stays in the server log (stack traces are
// internals, not API responses).
var errInternalPanic = errors.New("serve: internal panic")

// fitModel runs one fit on the shared pool, converting stray panics into
// errors.
func (s *Server) fitModel(r *http.Request, cfg zeroed.Config, ds *table.Dataset) (m *zeroed.Model, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.log.Error("fit panicked", "request_id", reqIDFrom(r.Context()),
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			err = errInternalPanic
		}
	}()
	return zeroed.New(cfg).FitOn(r.Context(), s.mgr.pool, ds)
}

// persistArtifact durably commits the encoded artifact under the model
// directory (creating it on first use) via the atomic temp+fsync+rename
// protocol: a crash at any point leaves the directory with either no new
// artifact or the complete one, never a torn file.
func (s *Server) persistArtifact(file string, data []byte) error {
	if err := os.MkdirAll(s.cfg.ModelDir, 0o755); err != nil {
		return err
	}
	return model.WriteFileAtomic(filepath.Join(s.cfg.ModelDir, file), data)
}

func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.reg.list()})
}

func (s *Server) handleModelInfo(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeErr(w, r, http.StatusNotFound, "not_found", "unknown model id")
		return
	}
	writeJSON(w, http.StatusOK, e.status())
}

// handleModelScore scores a CSV or NDJSON body synchronously against a
// registered model — the cheap phase only, no retraining. The uploaded
// header may be a permutation or superset of the model's schema (extras
// are dropped and reported; missing columns are a typed 400). The model is
// pinned for the duration of the request: a concurrent DELETE makes the id
// 404 for new requests but never tears this one — the captured entry keeps
// scoring and its artifacts stay on disk until the pin drains.
func (s *Server) handleModelScore(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.reg.acquire(id)
	if !ok {
		writeErr(w, r, http.StatusNotFound, "not_found", "unknown model id")
		return
	}
	defer s.reg.release(id)
	// A degenerate model has no trained detector — its fallback labels are
	// positional in the fitting data and meaningless for arbitrary uploads.
	if e.m.Degenerate() {
		writeErr(w, r, http.StatusConflict, "degenerate_model",
			"model was fitted on single-class data and cannot score new rows; refit on richer data")
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	ds, mapping, err := s.ingestUpload("score", r, body, e.m.Bind())
	if err != nil {
		writeIngestErr(w, r, err, s.cfg.MaxUploadBytes)
		return
	}
	res, err := s.scoreModel(r, e, ds)
	if err != nil {
		switch s.classifyFailure(r) {
		case failDeadline:
			s.writeDeadline(w, r)
			return
		case failClientGone:
			return
		}
		if errors.Is(err, errInternalPanic) {
			writeErr(w, r, http.StatusInternalServerError, "internal", "internal error during scoring")
			return
		}
		writeErr(w, r, http.StatusBadRequest, "score_failed", err.Error())
		return
	}
	s.met.observe(scorePhase, res.Runtime)
	out := ScoreResult{
		ModelID: e.id,
		Attrs:   e.m.Attrs(),
		Rows:    len(res.Pred),
		Pred:    res.Pred,
		ScoreMS: res.Runtime.Milliseconds(),
	}
	if mapping != nil {
		out.DroppedCols = mapping.Dropped
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
	writeScoreResult(w, r, &out)
}

// scoreModel runs one scoring pass on the shared pool, converting stray
// panics into errors.
func (s *Server) scoreModel(r *http.Request, e *regEntry, ds *table.Dataset) (res *zeroed.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.log.Error("scoring panicked", "request_id", reqIDFrom(r.Context()),
				"model", e.id, "panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			err = errInternalPanic
		}
	}()
	return e.m.ScoreOn(r.Context(), s.mgr.pool, ds)
}

// handleModelDelete evicts a model. The id 404s immediately for new
// requests; artifact files (all retained versions) are removed right away
// when nothing is in flight, or deferred to the last release when scores or
// streams still pin the model — so deletion never tears an in-flight
// request.
func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	paths, ok := s.reg.remove(id)
	if !ok {
		writeErr(w, r, http.StatusNotFound, "not_found", "unknown model id")
		return
	}
	s.dropScorer(id)
	for _, path := range paths {
		_ = os.Remove(path)
	}
	if s.cfg.ModelDir != "" {
		s.reg.writeManifest(s.met)
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
}
