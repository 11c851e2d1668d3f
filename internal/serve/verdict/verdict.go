// Package verdict renders per-cell verdicts and scores as JSON without
// reflection, byte for byte what encoding/json writes for them. It owns the
// NDJSON verdict-line format that the zeroedd stream route and zeroed
// -stream both print, and the row encoding of the score reply. It imports
// no server code, so the CLI links it without net/http.
package verdict

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// AppendLines appends one NDJSON verdict line per row of pred, the first
// numbered start and all stamped with version:
//
//	{"row":0,"version":1,"pred":[false,true],"scores":[0.0003,0.97]}
//
// Row i carries scores[i]; a nil scores, or an empty row of it, leaves the
// field out, as omitempty does. On error (a NaN or ±Inf score, failing
// where encoding/json fails) b comes back at its original length.
func AppendLines(b []byte, start, version int, pred [][]bool, scores [][]float64) ([]byte, error) {
	n0 := len(b)
	for i, row := range pred {
		b = append(b, `{"row":`...)
		b = strconv.AppendInt(b, int64(start+i), 10)
		b = append(b, `,"version":`...)
		b = strconv.AppendInt(b, int64(version), 10)
		b = append(b, `,"pred":`...)
		b = AppendBools(b, row)
		var sc []float64
		if scores != nil {
			sc = scores[i]
		}
		if len(sc) > 0 {
			b = append(b, `,"scores":`...)
			var err error
			if b, err = AppendFloats(b, sc); err != nil {
				return b[:n0], err
			}
		}
		b = append(b, "}\n"...)
	}
	return b, nil
}

// AppendBools appends row as encoding/json renders a []bool.
func AppendBools(b []byte, row []bool) []byte {
	if row == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for k, p := range row {
		if k > 0 {
			b = append(b, ',')
		}
		if p {
			b = append(b, "true"...)
		} else {
			b = append(b, "false"...)
		}
	}
	return append(b, ']')
}

// AppendFloats appends row as encoding/json renders a []float64, failing
// on the first NaN or ±Inf with the error encoding/json returns.
func AppendFloats(b []byte, row []float64) ([]byte, error) {
	if row == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for k, f := range row {
		if k > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendFloat appends f as encoding/json renders a float64: the shortest
// round-tripping 'f' form, or the 'e' form below 1e-6 and from 1e21 on,
// with a two-digit negative exponent cut to one digit (e-07 → e-7).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
