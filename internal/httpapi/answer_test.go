package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// wireLR and wireLNR are the reference the appended answers are pinned
// to: the wireRecord copies the handlers once encoded with
// json.NewEncoder(w).Encode.
func wireLR(recs []lbs.LRRecord) queryResponse {
	out := queryResponse{Results: make([]wireRecord, len(recs))}
	for i, rec := range recs {
		x, y, d := rec.Loc.X, rec.Loc.Y, rec.Dist
		out.Results[i] = wireRecord{
			ID: rec.ID, X: &x, Y: &y, Dist: &d,
			Name: rec.Name, Category: rec.Category,
			Attrs: rec.Attrs, Tags: rec.Tags,
		}
	}
	return out
}

func wireLNR(recs []lbs.LNRRecord) queryResponse {
	out := queryResponse{Results: make([]wireRecord, len(recs))}
	for i, rec := range recs {
		out.Results[i] = wireRecord{
			ID: rec.ID, Name: rec.Name, Category: rec.Category,
			Attrs: rec.Attrs, Tags: rec.Tags,
		}
	}
	return out
}

// wireBatch is the reference batch body: null holes where an answer is
// nil.
func wireBatch[T any](answers [][]T, exhausted bool, wire func([]T) queryResponse) batchResponse {
	resp := batchResponse{Answers: make([]*queryResponse, len(answers)), Exhausted: exhausted}
	for i, recs := range answers {
		if recs != nil {
			qr := wire(recs)
			resp.Answers[i] = &qr
		}
	}
	return resp
}

// encodeJSON renders v as the handlers did before answers were
// appended: json.NewEncoder(w).Encode, trailing newline included.
func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameAsJSON checks appended bytes against json.Marshal of the
// reference value: the same bytes, or the same refusal.
func sameAsJSON(t testing.TB, got []byte, gotErr error, ref any) {
	t.Helper()
	want, err := json.Marshal(ref)
	if gotErr != nil || err != nil {
		if gotErr == nil || err == nil || gotErr.Error() != err.Error() {
			t.Fatalf("appender error %v, encoding/json error %v", gotErr, err)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appended\n%s\nencoding/json\n%s", got, want)
	}
}

// answerFloats covers both sides of encoding/json's 'f'/'e' switch
// at 1e-6 and 1e21, signed zeros, the extremes and e-0N exponents.
var answerFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -2.5, 12345678.9, 400, -97.73,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1e-9, 3.2e-10, 1e-100,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.5e300, 5e-324,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// answerStrings covers every escaping branch: HTML-sensitive and JSON
// special characters, control bytes, DEL, invalid UTF-8, U+2028/2029
// and non-ASCII text.
var answerStrings = []string{
	"", "a", "School 7", "user-12", "<", ">", "&", `"`, `\`, "/", "\x00",
	"\x1f", "\t", "\n", "\r", "\b", "\f", "\x7f", "\xff", "\xc3", "\u2028",
	"\u2029", "微博", "é", "<script>alert(1)</script>",
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return answerFloats[rng.Intn(len(answerFloats))]
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	default:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
}

func randString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(4); n > 0; n-- {
		sb.WriteString(answerStrings[rng.Intn(len(answerStrings))])
	}
	return sb.String()
}

// randAttrs returns nil, an empty map or 1–12 keys (past the stack
// sort buffer's eight).
func randAttrs(rng *rand.Rand) map[string]float64 {
	switch n := rng.Intn(6); n {
	case 0:
		return nil
	case 1:
		return map[string]float64{}
	default:
		m := map[string]float64{}
		for i := rng.Intn(12) + 1; i > 0; i-- {
			m[randString(rng)] = randFloat(rng)
		}
		return m
	}
}

func randTags(rng *rand.Rand) map[string]string {
	switch n := rng.Intn(6); n {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	default:
		m := map[string]string{}
		for i := rng.Intn(12) + 1; i > 0; i-- {
			m[randString(rng)] = randString(rng)
		}
		return m
	}
}

func randLR(rng *rand.Rand) []lbs.LRRecord {
	if rng.Intn(10) == 0 {
		return []lbs.LRRecord{}
	}
	recs := make([]lbs.LRRecord, rng.Intn(12)+1)
	for i := range recs {
		recs[i] = lbs.LRRecord{
			ID: rng.Int63n(1<<62) - 1<<61, Loc: geom.Pt(randFloat(rng), randFloat(rng)), Dist: randFloat(rng),
			Name: randString(rng), Category: randString(rng), Attrs: randAttrs(rng), Tags: randTags(rng),
		}
	}
	return recs
}

func randLNR(rng *rand.Rand) []lbs.LNRRecord {
	if rng.Intn(10) == 0 {
		return []lbs.LNRRecord{}
	}
	recs := make([]lbs.LNRRecord, rng.Intn(12)+1)
	for i := range recs {
		recs[i] = lbs.LNRRecord{
			ID: rng.Int63n(1<<62) - 1<<61, Name: randString(rng), Category: randString(rng),
			Attrs: randAttrs(rng), Tags: randTags(rng),
		}
	}
	return recs
}

// randBatch draws 0–6 answers with nil holes.
func randBatch[T any](rng *rand.Rand, answer func(*rand.Rand) []T) [][]T {
	answers := make([][]T, rng.Intn(7))
	for i := range answers {
		if rng.Intn(3) > 0 {
			answers[i] = answer(rng)
		}
	}
	return answers
}

// TestAnswerEncodingMatchesJSON pins the appended answers byte for
// byte to encoding/json's rendering of the wire types, for seeded
// random records, batches with holes and exhausted, non-finite
// values (both refuse them) and, end to end, every /v1/lr body of
// 1000 queries over schools-50k.
func TestAnswerEncodingMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	t.Run("records", func(t *testing.T) {
		for i := 0; i < 2000; i++ {
			lr := randLR(rng)
			got, err := appendLR(nil, lr)
			sameAsJSON(t, got, err, wireLR(lr))
			lnr := randLNR(rng)
			got, err = appendLNR(nil, lnr)
			sameAsJSON(t, got, err, wireLNR(lnr))
		}
		// Nil answers render as an empty result list, like the
		// reference's non-nil empty slice.
		got, err := appendLR(nil, nil)
		sameAsJSON(t, got, err, wireLR(nil))
		got, err = appendLNR(nil, nil)
		sameAsJSON(t, got, err, wireLNR(nil))
	})
	t.Run("floats", func(t *testing.T) {
		for _, f := range answerFloats {
			for _, g := range []float64{f, -f} {
				lr := []lbs.LRRecord{{ID: 1, Loc: geom.Pt(g, -g), Dist: g, Attrs: map[string]float64{"v": g}}}
				got, err := appendLR(nil, lr)
				sameAsJSON(t, got, err, wireLR(lr))
			}
		}
	})
	t.Run("batches", func(t *testing.T) {
		for i := 0; i < 500; i++ {
			exhausted := rng.Intn(2) == 0
			lr := randBatch(rng, randLR)
			got, err := appendBatch(nil, lr, exhausted, appendLR)
			sameAsJSON(t, got, err, wireBatch(lr, exhausted, wireLR))
			lnr := randBatch(rng, randLNR)
			got, err = appendBatch(nil, lnr, exhausted, appendLNR)
			sameAsJSON(t, got, err, wireBatch(lnr, exhausted, wireLNR))
		}
	})
	t.Run("non-finite", func(t *testing.T) {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, lr := range [][]lbs.LRRecord{
				{{ID: 1, Loc: geom.Pt(bad, 0)}},
				{{ID: 1, Loc: geom.Pt(0, 1), Dist: bad}},
				{{ID: 1}, {ID: 2, Attrs: map[string]float64{"a": 1, "b": bad}}},
				{{ID: 1, Loc: geom.Pt(math.NaN(), bad), Attrs: map[string]float64{"a": bad}}},
			} {
				got, err := appendLR(nil, lr)
				sameAsJSON(t, got, err, wireLR(lr))
				lnr := []lbs.LNRRecord{{ID: 1, Attrs: lr[len(lr)-1].Attrs}}
				got, err = appendLNR(nil, lnr)
				sameAsJSON(t, got, err, wireLNR(lnr))
				answers := [][]lbs.LRRecord{nil, {{ID: 3}}, lr}
				got, err = appendBatch(nil, answers, false, appendLR)
				sameAsJSON(t, got, err, wireBatch(answers, false, wireLR))
			}
		}
	})
	t.Run("schools-50k-http", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds a 50k-tuple service")
		}
		sc := workload.USASchools(50000, 1)
		svc := lbs.NewService(sc.DB, lbs.Options{K: 10})
		ts := httptest.NewServer(NewServer(svc))
		defer ts.Close()
		b := sc.Bounds
		for i := 0; i < 1000; i++ {
			p := geom.Pt(b.Min.X+rng.Float64()*(b.Max.X-b.Min.X), b.Min.Y+rng.Float64()*(b.Max.Y-b.Min.Y))
			recs, err := svc.QueryLR(context.Background(), p, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get(fmt.Sprintf("%s/v1/lr?x=%s&y=%s", ts.URL,
				strconv.FormatFloat(p.X, 'g', -1, 64), strconv.FormatFloat(p.Y, 'g', -1, 64)))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want := encodeJSON(t, wireLR(recs)); resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("query %d at %v: status %d body\n%s\nwant\n%s", i, p, resp.StatusCode, body, want)
			}
			if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
				t.Fatalf("Content-Length %q for a %d-byte body", cl, len(body))
			}
		}
	})
}

// TestAnswerEncodingAllocs: appending an answer into a buffer with
// room allocates nothing, one-key attribute and tag maps included.
func TestAnswerEncodingAllocs(t *testing.T) {
	lr := make([]lbs.LRRecord, 10)
	lnr := make([]lbs.LNRRecord, 10)
	for i := range lr {
		lr[i] = lbs.LRRecord{ID: int64(i), Loc: geom.Pt(-97.5, 30.25), Dist: 1.5e-7, Name: "School 1",
			Category: "school", Attrs: map[string]float64{"enrollment": 412}, Tags: map[string]string{"gender": "f"}}
		lnr[i] = lbs.LNRRecord{ID: int64(i), Name: "user-1", Tags: map[string]string{"gender": "m", "open": "y"}}
	}
	batch := [][]lbs.LNRRecord{lnr, nil, lnr}
	buf := make([]byte, 0, 8<<10)
	for name, encode := range map[string]func() ([]byte, error){
		"lr":        func() ([]byte, error) { return appendLR(buf[:0], lr) },
		"lnr":       func() ([]byte, error) { return appendLNR(buf[:0], lnr) },
		"lnr-batch": func() ([]byte, error) { return appendBatch(buf[:0], batch, true, appendLNR) },
	} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := encode(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per answer, want 0", name, n)
		}
	}
}

// TestNonFiniteAnswerIs500: a record with a non-finite attribute (it
// can arrive through the Go API, a pack or the WAL) cannot be encoded,
// so every query endpoint answers 500 with an error body rather than
// an empty 200. writeJSON behaves the same for its own values.
func TestNonFiniteAnswerIs500(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	tuples := []lbs.Tuple{
		{ID: 1, Loc: geom.Pt(2, 2), Attrs: map[string]float64{"v": 1}},
		{ID: 2, Loc: geom.Pt(5, 5), Attrs: map[string]float64{"v": math.NaN()}},
		{ID: 3, Loc: geom.Pt(8, 8), Attrs: map[string]float64{"v": 3}},
	}
	ts := httptest.NewServer(NewServer(lbs.NewService(lbs.NewDatabase(bounds, tuples), lbs.Options{K: 3})))
	defer ts.Close()
	batch := `{"points":[{"x":1,"y":1},{"x":9,"y":9}]}`
	for _, c := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/lr?x=1&y=1", ""},
		{http.MethodGet, "/v1/lnr?x=1&y=1", ""},
		{http.MethodPost, "/v1/query/lr:batch", batch},
		{http.MethodPost, "/v1/query/lnr:batch", batch},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || err != nil || !strings.Contains(e.Error, "unsupported value: NaN") {
			t.Errorf("%s %s: status %d, body %+v (decode error %v); want 500 with an error body", c.method, c.path, resp.StatusCode, e, err)
		}
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"v": math.Inf(1)})
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError || err != nil || e.Error == "" {
		t.Errorf("writeJSON of +Inf: status %d body %q", rec.Code, rec.Body.String())
	}
}

// TestAnswerEncodingConcurrent has 8 clients POST LNR batches at once
// and checks every body against encoding/json: a pooled answer buffer
// reused before its write finished would show here (make stress runs
// it 50 times under -race).
func TestAnswerEncodingConcurrent(t *testing.T) {
	sc := workload.WeiboChina(3000, 1)
	svc := lbs.NewService(sc.DB, lbs.Options{K: 10})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	const clients, posts = 8, 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			b := sc.Bounds
			for i := 0; i < posts; i++ {
				// Mostly small batches, with an occasional one past the
				// pool's size cap.
				req := batchRequest{Points: make([]wirePoint, 1+rng.Intn(16))}
				if i%8 == 0 {
					req.Points = make([]wirePoint, 200)
				}
				pts := make([]geom.Point, len(req.Points))
				for j := range pts {
					pts[j] = geom.Pt(b.Min.X+rng.Float64()*(b.Max.X-b.Min.X), b.Min.Y+rng.Float64()*(b.Max.Y-b.Min.Y))
					req.Points[j] = wirePoint{X: pts[j].X, Y: pts[j].Y}
				}
				answers, err := svc.QueryLNRBatch(context.Background(), pts, nil)
				if err != nil {
					t.Error(err)
					return
				}
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(wireBatch(answers, false, wireLNR)); err != nil {
					t.Error(err)
					return
				}
				reqBody, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/query/lnr:batch", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
					t.Errorf("client %d post %d: status %d, read error %v, body differs from encoding/json:\n%s\nwant\n%s",
						c, i, resp.StatusCode, err, body, want.Bytes())
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
