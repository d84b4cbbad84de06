package httpapi

// Fuzz targets for the untrusted wire decoders: the single-point query
// string, batch bodies, NDJSON mutation streams and estimate specs.
// Each must never panic, and whatever it accepts must be something
// the backend can act on. FuzzAnswerEncoding covers the other
// direction: the answers the server appends must match encoding/json.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/live"
)

func finite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
}

// FuzzParseQuery: an accepted query string always yields a finite
// point.
func FuzzParseQuery(f *testing.F) {
	for _, q := range []string{
		"x=50&y=50", "x=1.5&y=-2&category=school&name=a", "x=abc&y=1", "",
		"x=NaN&y=0", "x=Inf&y=0", "x=-Inf&y=5", "x=1e400&y=0", "x=0x1p-2&y=1_0",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		p, _, err := parseQuery(&http.Request{URL: &url.URL{RawQuery: rawQuery}})
		if err == nil && !finite(p) {
			t.Fatalf("parseQuery(%q) accepted non-finite %v", rawQuery, p)
		}
	})
}

// FuzzParseBatch: parseBatch accepts exactly the bodies that
// encoding/json decodes into a batchRequest of 1…maxBatchPoints points
// within the body cap, with the same point bits and the same
// selection, whichever of its two decoders reads the body. Every
// accepted point is finite (JSON numbers cannot spell NaN or ±Inf, and
// overflow is a decode error).
func FuzzParseBatch(f *testing.F) {
	overCap := append([]byte(`{"points":[{"x":1,"y":2}]}`), bytes.Repeat([]byte(" "), maxBatchBodyBytes)...)
	for _, body := range []string{
		"", "{", `{"points":[]}`, `{"points":[{"x":1,"y":2}]}`,
		`{"points":[{"x":1,"y":2},{"x":3.5,"y":-4}],"category":"school","name":"a"}`,
		`{"points":[{"x":1,"y":2},{"x":3.5,"y":-4}],"name":"a","category":"school"}`,
		`{"points":[{"x":1e400,"y":0}]}`, `{"points":null}`,
		` {"points" : [ {"x": 1, "y": 2} ] } `, "{\"points\":[{\"x\":1,\"y\":2}]}\n",
		`{"POINTS":[{"X":1,"Y":2}],"Name":"a"}`, `{"points":[{"y":2,"x":1}]}`,
		`{"points":[{"x":1,"y":2,"z":3}],"limit":7}`, `{"points":[{"x":1}]}`,
		`{"points":[{"x":1,"y":2}]}trailing`, `{"points":[{"x":1,"y":2}]}{"points":[]}`,
		`{"points":[{"x":1,"y":2}],"name":"a\"b\u00e9\\","category":"\u2028"}`,
		`{"points":[{"x":1,"y":2}],"name":"微博"}`, "{\"points\":[{\"x\":1,\"y\":2}],\"category\":\"\xff\"}",
		`{"points":[{"x":1,"y":2}],"name":"a","name":"b"}`,
		`{"points":[{"x":-0,"y":-0.0}]}`, `{"points":[{"x":1E+2,"y":5e-324}]}`, `{"points":[{"x":1e-400,"y":0}]}`,
		`{"points":[{"x":01,"y":2}]}`, `{"points":[{"x":+1,"y":2}]}`, `{"points":[{"x":.5,"y":2}]}`,
		`{"points":[{"x":1.,"y":2}]}`, `{"points":[{"x":1e,"y":2}]}`, `{"points":[{"x":0x10,"y":2}]}`,
		`{"points":[{"x":"1","y":2}]}`, `{"points":[{"x":1,"y":2}],"name":null}`,
	} {
		f.Add([]byte(body))
	}
	f.Add(overCap)
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/query/lr:batch", bytes.NewReader(body))
		pts, sel, err := parseBatch(httptest.NewRecorder(), r)
		var ref batchRequest
		refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&ref)
		refOK := refErr == nil && len(body) <= maxBatchBodyBytes &&
			len(ref.Points) >= 1 && len(ref.Points) <= maxBatchPoints
		if (err == nil) != refOK {
			t.Fatalf("parseBatch error %v, encoding/json error %v with %d points (body %d bytes)",
				err, refErr, len(ref.Points), len(body))
		}
		if err != nil {
			return
		}
		if len(pts) != len(ref.Points) {
			t.Fatalf("%d points, encoding/json %d", len(pts), len(ref.Points))
		}
		for i, p := range pts {
			if !finite(p) {
				t.Fatalf("accepted non-finite point %v", p)
			}
			w := ref.Points[i]
			if math.Float64bits(p.X) != math.Float64bits(w.X) || math.Float64bits(p.Y) != math.Float64bits(w.Y) {
				t.Fatalf("point %d = %v, encoding/json (%v, %v)", i, p, w.X, w.Y)
			}
		}
		if sel != (Selection{Name: ref.Name, Category: ref.Category}) {
			t.Fatalf("selection %+v, encoding/json name %q category %q", sel, ref.Name, ref.Category)
		}
	})
}

// FuzzIngestStream decodes an NDJSON mutation stream the way the
// ingest handler does: an accepted insert or move always carries both
// coordinates, and the op's location is exactly the wire's.
func FuzzIngestStream(f *testing.F) {
	for _, body := range []string{
		`{"op":"insert","id":9001,"x":12.5,"y":-3.25,"name":"a","category":"b","attrs":{"v":1},"tags":{"k":"v"}}`,
		`{"op":"delete","id":3}` + "\n" + `not json` + "\n" + `{"op":"delete","id":4}`,
		`{"op":"move","id":17,"x":13.0,"y":-2.75}`,
		`{"op":"insert","id":1,"x":1}`, `{"op":"move","id":1}`, `{"op":"upsert","id":3}`, "",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		for {
			var w wireOp
			if err := dec.Decode(&w); err != nil {
				return // EOF, or a decode error the handler acks before closing
			}
			op, err := w.toOp()
			if err != nil {
				continue
			}
			var loc geom.Point
			switch op.Kind {
			case live.OpInsert:
				loc = op.Tuple.Loc
			case live.OpMove:
				loc = op.Loc
			default:
				continue
			}
			if w.X == nil || w.Y == nil {
				t.Fatalf("accepted %s without both coordinates", w.Op)
			}
			if loc != geom.Pt(*w.X, *w.Y) {
				t.Fatalf("%s location %v, wire (%v, %v)", w.Op, loc, *w.X, *w.Y)
			}
		}
	})
}

// FuzzEstimateSpec decodes an estimate body the way the estimate
// handler does, then validates and plans it: nothing panics, and
// every aggregate that validates also compiles (AVG through
// PlanBatch, its SUM/COUNT expansion).
func FuzzEstimateSpec(f *testing.F) {
	for _, body := range []string{
		`{"method":"lr","seed":1,"aggregates":[{"kind":"count"}],"options":{"max_samples":4}}`,
		`{"method":"auto","aggregates":[{"kind":"count"},{"kind":"avg","attr":"enrollment"}],"options":{"target_ci":0.1}}`,
		`{"method":"lnr","aggregates":[{"kind":"sum","attr":"v","where":{"op":"and","args":[{"op":"tag_eq","tag":"flag","equals":"y"},{"op":"not","args":[{"op":"in_rect","rect":{"min_x":0,"min_y":0,"max_x":50,"max_y":50}}]}]}}]}`,
		`{"method":"lr","aggregates":[{"kind":"count","where":{"op":"attr_cmp","attr":"v","cmp":"ge","value":2}}]}`,
		`{`, `{"method":"warp","aggregates":[{"kind":"count"}]}`, `{"method":"lr","aggregates":[]}`,
		`{"method":"nno","aggregates":[{"kind":"count"}]}`,
		`{"method":"lr","aggregates":[{"kind":"count","where":{"op":"between"}}]}`,
		`{"method":"lr","aggregates":[{"kind":"count","where":{"op":"and"}}]}`,
		`{"method":"lr","aggregates":[{"kind":"sum"}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec jobs.Spec
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		_, _ = core.PlanBatch(spec.Aggregates, core.PlanOptions{Method: spec.Method, Seed: spec.Seed})
		for _, a := range spec.Aggregates {
			if a.Validate() != nil {
				continue
			}
			var err error
			if a.Kind == core.AggAvg {
				_, err = core.PlanBatch([]core.AggSpec{a}, core.PlanOptions{})
			} else {
				_, err = a.Compile()
			}
			if err != nil {
				t.Fatalf("%+v validates but does not compile: %v", a, err)
			}
		}
	})
}

// FuzzAnswerEncoding: for any record strings and float bits, the
// appended LR, LNR and batch answers equal encoding/json's rendering
// byte for byte, or both refuse a non-finite value with the same
// error.
func FuzzAnswerEncoding(f *testing.F) {
	f.Add(int64(7), "School 7", "school", "gender", "f", "enrollment",
		math.Float64bits(-97.7), math.Float64bits(30.25), math.Float64bits(1e-7), math.Float64bits(412))
	f.Add(int64(-1), "<a&b>", "\"q\"\\", "\u2028", "\xff\x00", "微博",
		math.Float64bits(1e21), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(5e-324), math.Float64bits(math.NaN()))
	f.Add(int64(math.MaxInt64), "", "", "", "", "",
		math.Float64bits(math.Inf(1)), uint64(0), math.Float64bits(1e-9), math.Float64bits(math.Nextafter(1e21, 0)))
	f.Fuzz(func(t *testing.T, id int64, name, category, tagKey, tagVal, attrKey string, xBits, yBits, distBits, attrBits uint64) {
		x, y := math.Float64frombits(xBits), math.Float64frombits(yBits)
		attrs := map[string]float64{attrKey: math.Float64frombits(attrBits), "z": x}
		tags := map[string]string{tagKey: tagVal, name: category}
		lr := []lbs.LRRecord{
			{ID: id, Loc: geom.Pt(x, y), Dist: math.Float64frombits(distBits), Name: name, Category: category, Attrs: attrs, Tags: tags},
			{ID: -id, Loc: geom.Pt(y, 1), Name: tagVal, Tags: map[string]string{attrKey: name}},
		}
		lnr := []lbs.LNRRecord{
			{ID: id, Name: name, Category: category, Attrs: attrs, Tags: tags},
			{ID: 1, Category: tagKey, Attrs: map[string]float64{name: y}},
		}
		got, err := appendLR(nil, lr)
		sameAsJSON(t, got, err, wireLR(lr))
		got, err = appendLNR(nil, lnr)
		sameAsJSON(t, got, err, wireLNR(lnr))
		batch := [][]lbs.LNRRecord{lnr, nil, {}}
		got, err = appendBatch(nil, batch, id%2 == 0, appendLNR)
		sameAsJSON(t, got, err, wireBatch(batch, id%2 == 0, wireLNR))
	})
}
