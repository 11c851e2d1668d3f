package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/serve/verdict"
)

// Verdict wire encoding. A score or stream reply carries one bool and one
// float64 per scored cell, and rendering those through encoding/json's
// reflection cost more than scoring a warm chunk. They are appended
// straight into a reused buffer by package verdict, byte for byte what
// json.Encoder writes for ScoreResult and streamLine (pinned by
// TestVerdictWireMatchesEncodingJSON and FuzzVerdictWire). String fields
// and the trace still go through encoding/json, so escaping cannot drift.

// replyBufs recycles verdict encode buffers across requests, so a score
// reply or a stream's first chunk does not grow a fresh buffer from empty.
// A buffer larger than maxPooledReply is left to the GC, so one huge reply
// does not stay pinned.
var replyBufs sync.Pool

const maxPooledReply = 1 << 20

func getReplyBuf() []byte {
	if p, ok := replyBufs.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return nil
}

func putReplyBuf(b []byte) {
	if cap(b) <= maxPooledReply {
		replyBufs.Put(&b)
	}
}

// writeScoreResult writes out as the score route's 200 reply in one Write,
// under a respond span. A ?trace=1 tree is snapshotted once the verdicts
// are encoded, so its still-open respond span times that encoding and has
// no bytes attr; the tree rides in the trace field, which encoding/json
// renders last. A score that cannot be encoded (NaN or ±Inf) is a typed
// 500.
func writeScoreResult(w http.ResponseWriter, r *http.Request, out *ScoreResult) {
	_, span := obs.Start(r.Context(), "respond")
	defer span.End()
	buf, err := appendScoreVerdicts(getReplyBuf(), out)
	if err == nil {
		if wantTrace(r) {
			out.Trace = traceTree(r)
		}
		buf, err = closeScoreResult(buf, out.Trace)
	}
	defer putReplyBuf(buf)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "internal", "encode score reply: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf) // client gone is not a server error
	span.SetInt("bytes", int64(len(buf)))
}

// appendScoreVerdicts appends r's JSON object from its opening brace
// through score_ms: every field but the trailing trace, which
// closeScoreResult adds.
func appendScoreVerdicts(b []byte, r *ScoreResult) ([]byte, error) {
	b = append(b, `{"model_id":`...)
	b, err := appendMarshal(b, r.ModelID)
	if err != nil {
		return b, err
	}
	b = append(b, `,"attrs":`...)
	if b, err = appendMarshal(b, r.Attrs); err != nil {
		return b, err
	}
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(r.Rows), 10)
	b = append(b, `,"flagged":`...)
	b = strconv.AppendInt(b, int64(r.Flagged), 10)
	b = append(b, `,"pred":`...)
	if r.Pred == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range r.Pred {
			if i > 0 {
				b = append(b, ',')
			}
			b = verdict.AppendBools(b, row)
		}
		b = append(b, ']')
	}
	if len(r.Scores) > 0 {
		b = append(b, `,"scores":[`...)
		for i, row := range r.Scores {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = verdict.AppendFloats(b, row); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	if len(r.DroppedCols) > 0 {
		b = append(b, `,"dropped_cols":`...)
		if b, err = appendMarshal(b, r.DroppedCols); err != nil {
			return b, err
		}
	}
	b = append(b, `,"score_ms":`...)
	return strconv.AppendInt(b, r.ScoreMS, 10), nil
}

// closeScoreResult appends the trace field when trace is set, then closes
// the object and the line.
func closeScoreResult(b []byte, trace *obs.Node) ([]byte, error) {
	if trace != nil {
		b = append(b, `,"trace":`...)
		var err error
		if b, err = appendMarshal(b, trace); err != nil {
			return b, err
		}
	}
	return append(b, "}\n"...), nil
}

// appendMarshal appends json.Marshal(v), the bytes json.Encoder writes for
// a field holding v.
func appendMarshal(b []byte, v any) ([]byte, error) {
	enc, err := json.Marshal(v)
	return append(b, enc...), err
}
