package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/lbs"
)

// Answer encoding. The four query endpoints emit one response shape
// far more often than any other, so it is appended straight from the
// records into a pooled buffer instead of being copied into wireRecords
// and encoded by reflection. The bytes are exactly what
// json.Encoder.Encode writes for queryResponse and batchResponse
// (TestAnswerEncodingMatchesJSON, FuzzAnswerEncoding): wireRecord's
// field order and omitempty rules, encoding/json's float format,
// sorted map keys and HTML-safe string escaping. Like encoding/json,
// the appender refuses NaN and ±Inf, which JSON cannot spell.

// answerBufs recycles answer bodies between requests. A buffer that
// grew past maxPooledAnswer (a large batch) is left to the GC rather
// than pinned in the pool.
var answerBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

const maxPooledAnswer = 64 << 10

// writeAnswer renders one 200 answer through encode into a pooled
// buffer and writes it once with its Content-Length. An answer that
// cannot be encoded is a 500 with an errorResponse body. The buffer
// goes back to the pool only after Write returns: net/http has copied
// or sent the bytes by then.
func writeAnswer(w http.ResponseWriter, encode func([]byte) ([]byte, error)) {
	bp := answerBufs.Get().(*[]byte)
	body, err := encode((*bp)[:0])
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	} else {
		body = append(body, '\n')
		writeBody(w, http.StatusOK, body)
	}
	if cap(body) <= maxPooledAnswer {
		*bp = body[:0]
		answerBufs.Put(bp)
	}
}

// appendLR appends one LR answer as a queryResponse:
// {"results":[{"id":…,"x":…,"y":…,"dist":…,…},…]}.
func appendLR(b []byte, recs []lbs.LRRecord) ([]byte, error) {
	e := answerEncoder{b: append(b, `{"results":[`...)}
	for i := range recs {
		r := &recs[i]
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = strconv.AppendInt(append(e.b, `{"id":`...), r.ID, 10)
		e.b = append(e.b, `,"x":`...)
		e.float(r.Loc.X)
		e.b = append(e.b, `,"y":`...)
		e.float(r.Loc.Y)
		e.b = append(e.b, `,"dist":`...)
		e.float(r.Dist)
		e.tail(r.Name, r.Category, r.Attrs, r.Tags)
	}
	return append(e.b, "]}"...), e.err
}

// appendLNR appends one rank-only answer as a queryResponse: the
// records carry no x, y or dist.
func appendLNR(b []byte, recs []lbs.LNRRecord) ([]byte, error) {
	e := answerEncoder{b: append(b, `{"results":[`...)}
	for i := range recs {
		r := &recs[i]
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = strconv.AppendInt(append(e.b, `{"id":`...), r.ID, 10)
		e.tail(r.Name, r.Category, r.Attrs, r.Tags)
	}
	return append(e.b, "]}"...), e.err
}

// appendBatch appends a batchResponse around per-point answers: a nil
// answer is a null hole, and exhausted rides along only when true.
func appendBatch[T any](b []byte, answers [][]T, exhausted bool,
	appendAnswer func([]byte, []T) ([]byte, error)) ([]byte, error) {

	b = append(b, `{"answers":[`...)
	for i, recs := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		if recs == nil {
			b = append(b, "null"...)
			continue
		}
		var err error
		if b, err = appendAnswer(b, recs); err != nil {
			return b, err
		}
	}
	b = append(b, ']')
	if exhausted {
		b = append(b, `,"exhausted":true`...)
	}
	return append(b, '}'), nil
}

// answerEncoder appends record fields; err keeps the first value
// encoding/json would refuse, after which b is to be discarded.
type answerEncoder struct {
	b   []byte
	err error
}

// tail appends a record's optional fields and closes it. Map keys go
// in encoding/json's order; up to eight sort in a stack buffer, so the
// usual one-key map costs no allocation.
func (e *answerEncoder) tail(name, category string, attrs map[string]float64, tags map[string]string) {
	if name != "" {
		e.b = appendString(append(e.b, `,"name":`...), name)
	}
	if category != "" {
		e.b = appendString(append(e.b, `,"category":`...), category)
	}
	var buf [8]string
	if len(attrs) > 0 {
		e.b = append(e.b, `,"attrs":{`...)
		for i, k := range sortedKeys(buf[:0], attrs) {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(appendString(e.b, k), ':')
			e.float(attrs[k])
		}
		e.b = append(e.b, '}')
	}
	if len(tags) > 0 {
		e.b = append(e.b, `,"tags":{`...)
		for i, k := range sortedKeys(buf[:0], tags) {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = appendString(append(appendString(e.b, k), ':'), tags[k])
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, '}')
}

// sortedKeys appends m's keys to keys in encoding/json's order
// (byte-wise).
func sortedKeys[V any](keys []string, m map[string]V) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// float appends f as encoding/json's float64 encoder does: the
// shortest 'f' form, switching to 'e' below 1e-6 and from 1e21 on,
// with a two-digit negative exponent shortened (e-09 → e-9).
func (e *answerEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// appendString appends s as a JSON string. Printable ASCII other than
// the characters encoding/json escapes (" \ < > &) is copied as is;
// anything else goes through json.Marshal, which also handles control
// bytes, invalid UTF-8 and U+2028/U+2029.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
