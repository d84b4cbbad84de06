package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/geom"
)

// Batch request decoding. Clients of this package write a batch body
// with json.Marshal(batchRequest), so nearly every body has one shape:
//
//	{"points":[{"x":N,"y":N},…][,"name":"S"][,"category":"S"]}
//
// with no whitespace. parseBatch reads the body into a pooled buffer
// and scans that shape by hand instead of decoding by reflection. A
// body in any other form (whitespace, other key order or case, unknown
// or repeated fields, escaped strings, a number that does not parse)
// goes to encoding/json over the same bytes, so the accepted bodies,
// their points and their selections are exactly encoding/json's
// (FuzzParseBatch). As with json.Decoder, bytes after the first JSON
// value are ignored.

// batchBodies recycles request bodies between requests. A buffer that
// grew past maxPooledAnswer is left to the GC.
var batchBodies = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// parseBatch decodes and validates a batch request body. The body is
// read under a maxBatchBodyBytes cap, so an oversized POST is rejected
// without allocating it, whatever it holds.
func parseBatch(w http.ResponseWriter, r *http.Request) ([]geom.Point, Selection, error) {
	if r.Method != http.MethodPost {
		return nil, Selection{}, fmt.Errorf("batch queries are POST-only")
	}
	bp := batchBodies.Get().(*[]byte)
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
	body := buf.Bytes()
	defer func() {
		if cap(body) <= maxPooledAnswer {
			*bp = body[:0]
			batchBodies.Put(bp)
		}
	}()
	if err != nil {
		return nil, Selection{}, fmt.Errorf("invalid batch body: %v", err)
	}
	pts, sel, ok := scanBatch(body)
	if !ok {
		var req batchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return nil, Selection{}, fmt.Errorf("invalid batch body: %v", err)
		}
		pts = make([]geom.Point, len(req.Points))
		for i, p := range req.Points {
			pts[i] = geom.Pt(p.X, p.Y)
		}
		sel = Selection{Name: req.Name, Category: req.Category}
	}
	if len(pts) == 0 {
		return nil, Selection{}, fmt.Errorf("batch needs at least one point")
	}
	if len(pts) > maxBatchPoints {
		return nil, Selection{}, fmt.Errorf("batch of %d points exceeds the %d-point cap", len(pts), maxBatchPoints)
	}
	return pts, sel, nil
}

// scanBatch parses a body of the shape json.Marshal(batchRequest)
// writes. ok is false for any other body, including one in that shape
// that encoding/json would reject (a number out of float64 range); the
// caller then decodes it with encoding/json. The selection strings are
// copies: body goes back to its pool.
func scanBatch(body []byte) (pts []geom.Point, sel Selection, ok bool) {
	s := batchScanner{b: body}
	if !s.lit(`{"points":[`) {
		return nil, sel, false
	}
	if !s.lit("]") {
		pts = make([]geom.Point, 0, 16)
		for {
			var p geom.Point
			if !s.lit(`{"x":`) || !s.number(&p.X) || !s.lit(`,"y":`) || !s.number(&p.Y) || !s.lit("}") {
				return nil, sel, false
			}
			pts = append(pts, p)
			if s.lit("]") {
				break
			}
			if !s.lit(",") {
				return nil, sel, false
			}
		}
	}
	if s.lit(`,"name":`) && !s.str(&sel.Name) {
		return nil, sel, false
	}
	if s.lit(`,"category":`) && !s.str(&sel.Category) {
		return nil, sel, false
	}
	return pts, sel, s.lit("}")
}

// batchScanner reads a body left to right; every method consumes its
// token and reports true, or consumes nothing and reports false.
type batchScanner struct {
	b []byte
	i int
}

// lit consumes the literal t.
func (s *batchScanner) lit(t string) bool {
	if len(s.b)-s.i < len(t) || string(s.b[s.i:s.i+len(t)]) != t {
		return false
	}
	s.i += len(t)
	return true
}

// number consumes a JSON number
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) that
// strconv.ParseFloat, which encoding/json also calls, reads as a
// float64. The grammar check comes first: ParseFloat also accepts
// forms JSON does not, such as "+1", ".5", "01", "Inf" or hex.
func (s *batchScanner) number(f *float64) bool {
	b, j := s.b, s.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = digits(b, j)
	default:
		return false
	}
	if j < len(b) && b[j] == '.' {
		if k := digits(b, j+1); k > j+1 {
			j = k
		} else {
			return false
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		if e := digits(b, k); e > k {
			j = e
		} else {
			return false
		}
	}
	v, err := strconv.ParseFloat(string(b[s.i:j]), 64)
	if err != nil {
		return false
	}
	*f, s.i = v, j
	return true
}

// digits returns the index after the run of ASCII digits at b[j:].
func digits(b []byte, j int) int {
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	return j
}

// str consumes a JSON string with no escapes and no control bytes, in
// valid UTF-8: the strings encoding/json decodes to their bytes
// unchanged.
func (s *batchScanner) str(out *string) bool {
	b := s.b
	if s.i >= len(b) || b[s.i] != '"' {
		return false
	}
	for j := s.i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			raw := b[s.i+1 : j]
			if !utf8.Valid(raw) {
				return false
			}
			*out, s.i = string(raw), j+1
			return true
		case c == '\\' || c < 0x20:
			return false
		}
	}
	return false
}
