package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve/verdict"
	"repro/internal/stats"
	"repro/internal/zeroed"
)

// Streaming detection: POST /v1/models/{id}/stream accepts a chunked CSV or
// NDJSON body and answers with one JSON line per input row, scored against
// the registered model through its warm score cache. Verdicts are
// chunk-invariant — the same rows split at any transport boundaries produce
// byte-identical verdict lines — because scoring binds a fresh
// dictionary-seeded dataset per chunk (see zeroed.StreamScorer).
//
// Every streamed cell also feeds the model's drift gauges (unseen-value
// rate and score-distribution shift against the fit-time frequency
// snapshot, exported as zeroedd_model_drift). When a gauge trips the
// configured threshold, a background refit trains a successor on the rows
// accumulated so far (bounded by Config.MaxRows), persists it as a new
// versioned artifact, and hot-swaps it into the registry: in-flight chunks
// finish on the old model, later chunks score on the successor, and the old
// artifact stays on disk for rollback.

// streamTable holds one StreamScorer per model id, created lazily on the
// first stream request and dropped on DELETE. All concurrent streams of one
// model share the scorer, so their rows pool into one drift estimate and
// one refit accumulator.
type streamTable struct {
	mu sync.Mutex
	m  map[string]*zeroed.StreamScorer
}

// scorerFor returns the model's stream scorer, creating it on first use.
func (s *Server) scorerFor(id string, e *regEntry) (*zeroed.StreamScorer, error) {
	s.streams.mu.Lock()
	defer s.streams.mu.Unlock()
	if s.streams.m == nil {
		s.streams.m = make(map[string]*zeroed.StreamScorer)
	}
	if ss, ok := s.streams.m[id]; ok {
		return ss, nil
	}
	ss, err := zeroed.NewStreamScorer(e.m, zeroed.StreamConfig{
		DriftThreshold:    s.cfg.DriftThreshold,
		DriftMinRows:      s.cfg.DriftMinRows,
		MaxAccumRows:      s.cfg.MaxRows,
		RefitBackoffBase:  s.cfg.RefitBackoff,
		RefitBreakerAfter: s.cfg.RefitBreakerAfter,
	})
	if err != nil {
		return nil, err
	}
	s.streams.m[id] = ss
	return ss, nil
}

func (s *Server) dropScorer(id string) {
	s.streams.mu.Lock()
	delete(s.streams.m, id)
	s.streams.mu.Unlock()
}

// streamLine is the schema of one NDJSON verdict frame: the verdict for
// input row Row, scored by model version Version. verdict.AppendLines
// renders it without reflection, byte for byte as json.Encoder would.
// Scores round-trip through JSON bit-exactly, so equal rows always render
// equal bytes.
type streamLine struct {
	Row     int       `json:"row"`
	Version int       `json:"version"`
	Pred    []bool    `json:"pred"`
	Scores  []float64 `json:"scores,omitempty"`
}

// streamSummary is the final NDJSON frame of a stream response.
type streamSummary struct {
	Done    bool              `json:"done"`
	Model   string            `json:"model"`
	Version int               `json:"version"`
	Rows    int               `json:"rows"`
	Drift   stats.DriftGauges `json:"drift"`
	Refits  int               `json:"refits,omitempty"`
}

// handleModelStream scores a chunked CSV or NDJSON body row-by-row against
// a registered model, writing one JSON line per row as chunks arrive; a
// chunk's lines are written and flushed together. The body decodes through
// the shared table.RowSource layer: a CSV header may be a permutation or
// superset of the model's schema (table.MapSource projects it), NDJSON
// lines bind directly to the schema.
func (s *Server) handleModelStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.reg.acquire(id)
	if !ok {
		writeErr(w, r, http.StatusNotFound, "not_found", "unknown model id")
		return
	}
	defer s.reg.release(id)
	if e.m.Degenerate() {
		writeErr(w, r, http.StatusConflict, "degenerate_model",
			"model was fitted on single-class data and cannot score new rows; refit on richer data")
		return
	}
	ss, err := s.scorerFor(id, e)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "stream_failed", err.Error())
		return
	}
	chunkRows := s.cfg.StreamChunkRows
	if v := r.URL.Query().Get("chunk"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > s.cfg.MaxRows {
			writeErr(w, r, http.StatusBadRequest, "bad_param",
				fmt.Sprintf("bad chunk %q: must be an int in [1, %d]", v, s.cfg.MaxRows))
			return
		}
		chunkRows = n
	}
	src, _, err := s.uploadSource(r, r.Body, e.m.Attrs())
	if err != nil {
		code := "bad_stream"
		if errors.Is(err, errTooWide) {
			code = "bad_upload"
		}
		writeErr(w, r, http.StatusBadRequest, code, err.Error())
		return
	}
	withScores := r.URL.Query().Get("scores") != "0"

	// Verdicts are written while the body is still being read, so the
	// HTTP/1.x server must not close the unread request body at the first
	// response write. Best-effort: HTTP/2 is always full-duplex.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	// From here on the response is a 200 NDJSON stream; failures surface as
	// a terminal {"error": ...} line, not a status rewrite.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	s.met.add(streamRequests, 1)

	rows, refits := 0, 0
	var st zeroed.ChunkStatus
	buf := getReplyBuf()
	defer func() { putReplyBuf(buf) }()
	for {
		chunk, rerr := src.Next(chunkRows)
		if len(chunk) > 0 {
			res, cst, err := s.scoreChunk(r.Context(), ss, chunk)
			if err != nil {
				switch s.classifyFailure(r) {
				case failDeadline:
					// The 200 is already on the wire: the deadline surfaces
					// as a typed terminal NDJSON line instead of a status.
					s.met.add(requestDeadlines, 1)
					_ = enc.Encode(map[string]apiError{"error": apiErrorFor(r, "deadline",
						fmt.Sprintf("stream exceeded the %s server-side deadline", s.cfg.RequestTimeout))})
					return
				case failClientGone:
					return // client gone
				}
				_ = enc.Encode(map[string]apiError{"error": apiErrorFor(r, "score_failed", err.Error())})
				return
			}
			st = cst
			_, span := obs.Start(r.Context(), "respond")
			var scores [][]float64
			if withScores {
				scores = res.Scores
			}
			if buf, err = verdict.AppendLines(buf[:0], rows, cst.Version, res.Pred, scores); err != nil {
				span.End()
				_ = enc.Encode(map[string]apiError{"error": apiErrorFor(r, "internal", "encode verdicts: "+err.Error())})
				return
			}
			_, werr := w.Write(buf)
			_ = rc.Flush()
			span.SetInt("bytes", int64(len(buf)))
			span.End()
			if werr != nil {
				return // client gone
			}
			rows += len(chunk)
			s.met.add(streamRows, int64(len(chunk)))
			if cst.ShouldRefit && ss.BeginRefit() {
				refits++
				s.met.add(refitsStarted, 1)
				_ = enc.Encode(map[string]any{"event": "refit", "model": id, "version": cst.Version})
				s.mgr.spawn(func(ctx context.Context) { s.runRefit(ctx, id, ss) })
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			_ = enc.Encode(map[string]apiError{"error": apiErrorFor(r, "bad_stream", rerr.Error())})
			return
		}
		// A long-lived stream ends gracefully when its model is deleted:
		// the chunk that was in flight finished above, nothing tears.
		if _, ok := s.reg.get(id); !ok {
			_ = enc.Encode(map[string]apiError{"error": apiErrorFor(r, "model_deleted", "model was deleted mid-stream")})
			return
		}
	}
	drift := st.Drift
	version := st.Version
	if rows == 0 {
		drift, version = ss.Gauges()
	}
	_ = enc.Encode(streamSummary{Done: true, Model: id, Version: version, Rows: rows, Drift: drift, Refits: refits})
}

// scoreChunk scores one stream chunk on the shared pool, converting stray
// panics into errors like every other request-reachable path.
func (s *Server) scoreChunk(ctx context.Context, ss *zeroed.StreamScorer, chunk [][]string) (res *zeroed.Result, st zeroed.ChunkStatus, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.log.Error("stream scoring panicked", "request_id", reqIDFrom(ctx),
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			err = errInternalPanic
		}
	}()
	return ss.ScoreChunk(ctx, s.mgr.pool, chunk)
}

// runRefit is the background half of a drift trip, spawned by the manager
// so Close cancels and awaits it: take a running slot like any fit, fit a
// successor on the accumulated stream, persist it as the next artifact
// version, and hot-swap registry and scorer. Any failure aborts the refit
// and keeps the old model serving; the drift gauges keep accumulating.
func (s *Server) runRefit(ctx context.Context, id string, ss *zeroed.StreamScorer) {
	ok := false
	defer func() {
		if rec := recover(); rec != nil {
			s.log.Error("refit panicked", "model", id,
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
		}
		if !ok {
			s.met.add(refitsFailed, 1)
			ss.AbortRefit()
		}
	}()
	release, err := s.mgr.acquire(ctx)
	if err != nil {
		s.log.Error("refit canceled before it ran", "model", id, "err", err)
		return
	}
	defer release()
	m2, err := ss.Refit(ctx, s.mgr.pool)
	if err != nil {
		s.log.Error("refit failed", "model", id, "err", err)
		return
	}
	data, err := model.Encode(m2)
	if err != nil {
		s.log.Error("refit failed to encode", "model", id, "err", err)
		return
	}
	version := m2.Lineage().Version
	if s.cfg.ModelDir != "" {
		err := fpRefitPersist.Eval()
		if err == nil {
			err = s.persistArtifact(artifactFile(id, version), data)
		}
		if err != nil {
			s.log.Error("refit failed to persist", "model", id, "err", err)
			// A post-commit failure may have left the successor artifact on
			// disk without a swap; remove it so restart recovers the version
			// that was actually serving.
			_ = os.Remove(filepath.Join(s.cfg.ModelDir, artifactFile(id, version)))
			return
		}
	}
	if _, swapped := s.reg.swap(id, m2, len(data)); !swapped {
		// Deleted while the refit ran: discard the successor and its
		// artifact; the DELETE already reaped (or doomed) the older files.
		if s.cfg.ModelDir != "" {
			_ = os.Remove(filepath.Join(s.cfg.ModelDir, artifactFile(id, version)))
		}
		return
	}
	if err := ss.Install(m2); err != nil {
		s.log.Error("refit failed to install", "model", id, "err", err)
		return
	}
	ok = true
	s.met.add(refitsSwapped, 1)
	s.log.Info("refit swapped", "model", id, "version", version)
	if s.cfg.ModelDir != "" {
		s.reg.writeManifest(s.met)
	}
}
