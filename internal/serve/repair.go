package serve

import (
	"errors"
	"net/http"

	"repro/internal/obs"
	"repro/internal/repair"
)

// The served detect→repair loop: POST /v1/models/{id}/repair scores an
// uploaded table against a registered model — the cheap phase only, no
// refit — then applies the repair strategies (FD-implied values, typo
// correction, numeric medians, dominant modes) to the flagged cells and
// returns the corrected table with a cell-level change log. The same
// artifact and the same upload bytes always produce the same corrected
// table and change log, bit-for-bit identical to running `zeroed
// -model-in ... -repair` on the same inputs.

// RepairChange is one cell-level entry of the change log. Field names
// match the JSON lines `zeroed -repair-log` emits.
type RepairChange struct {
	Row      int    `json:"row"`
	Col      int    `json:"col"`
	Attr     string `json:"attr"`
	Old      string `json:"old"`
	New      string `json:"new"`
	Strategy string `json:"strategy"`
}

// RepairResult is the wire form of one served detect→repair call.
type RepairResult struct {
	ModelID string   `json:"model_id"`
	Attrs   []string `json:"attrs"`
	Rows    int      `json:"rows"`
	// Flagged counts cells the detector predicted erroneous; Repaired
	// counts the subset the repairer changed (repair never invents data,
	// so cells without confident evidence stay untouched).
	Flagged  int            `json:"flagged"`
	Repaired int            `json:"repaired"`
	Changes  []RepairChange `json:"changes"`
	// Table is the corrected table in schema order, header excluded.
	// Suppressed by ?table=0 when the caller only wants the change log.
	Table [][]string `json:"table,omitempty"`
	// DroppedCols lists upload columns outside the model schema that the
	// header mapping dropped before scoring.
	DroppedCols []string `json:"dropped_cols,omitempty"`
	ScoreMS     int64    `json:"score_ms"`
	RepairMS    int64    `json:"repair_ms"`
	// Trace is the request's span tree, embedded when the client asked for
	// it with ?trace=1.
	Trace *obs.Node `json:"trace,omitempty"`
}

// handleModelRepair scores an uploaded CSV or NDJSON body against a
// registered model and repairs the flagged cells. Like score, the upload
// header may be a permutation or superset of the model schema, the model
// is pinned for the duration of the request, and no refit happens.
func (s *Server) handleModelRepair(w http.ResponseWriter, r *http.Request) {
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
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	ds, mapping, err := s.ingestUpload("repair", r, body, e.m.Bind())
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

	repSpan := obs.StartPhase(r.Context(), "repair.apply")
	fixed, fixes := repair.New(repair.Config{}).Apply(ds, res.Pred)
	repSpan.SetInt("changes", int64(len(fixes)))
	repairDur, _ := repSpan.End()
	s.met.observe(repairPhase, repairDur)
	s.met.add(repairedCells, int64(len(fixes)))

	out := RepairResult{
		ModelID:  e.id,
		Attrs:    e.m.Attrs(),
		Rows:     ds.NumRows(),
		Repaired: len(fixes),
		Changes:  make([]RepairChange, 0, len(fixes)),
		ScoreMS:  res.Runtime.Milliseconds(),
		RepairMS: repairDur.Milliseconds(),
	}
	for _, row := range res.Pred {
		for _, p := range row {
			if p {
				out.Flagged++
			}
		}
	}
	attrs := e.m.Attrs()
	for _, f := range fixes {
		out.Changes = append(out.Changes, RepairChange{
			Row: f.Row, Col: f.Col, Attr: attrs[f.Col],
			Old: f.Old, New: f.New, Strategy: string(f.Strategy),
		})
	}
	if mapping != nil {
		out.DroppedCols = mapping.Dropped
	}
	if r.URL.Query().Get("table") != "0" {
		out.Table = make([][]string, fixed.NumRows())
		for i := range out.Table {
			row := make([]string, fixed.NumCols())
			for j := range row {
				row[j] = fixed.Value(i, j)
			}
			out.Table[i] = row
		}
	}
	if wantTrace(r) {
		out.Trace = traceTree(r)
	}
	writeJSON(w, http.StatusOK, out)
}
