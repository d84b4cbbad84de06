package httpapi

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// TestBatchRoundTrip: a batch POST answers the same records as
// per-point GETs and costs the same number of server-side queries.
// countAll compiles COUNT(*), the aggregate these tests run.
func countAll(tb testing.TB) []core.Aggregate {
	tb.Helper()
	spec := core.CountSpec()
	agg, err := spec.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return []core.Aggregate{agg}
}

func TestBatchRoundTrip(t *testing.T) {
	svc := testService(50, 3, 0, 2)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pts := []geom.Point{geom.Pt(10, 10), geom.Pt(90, 90), geom.Pt(50, 50)}

	answers, err := c.QueryLRBatch(ctx, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(pts) {
		t.Fatalf("answers: %d, want %d", len(answers), len(pts))
	}
	ref := testService(50, 3, 0, 2)
	for i, p := range pts {
		want, err := ref.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(answers[i]) != len(want) {
			t.Fatalf("point %d: %d records, want %d", i, len(answers[i]), len(want))
		}
		for j := range want {
			if answers[i][j].ID != want[j].ID || answers[i][j].Loc != want[j].Loc {
				t.Errorf("point %d record %d: %+v != %+v", i, j, answers[i][j], want[j])
			}
		}
	}
	if svc.QueryCount() != int64(len(pts)) {
		t.Errorf("server QueryCount = %d, want %d", svc.QueryCount(), len(pts))
	}
	if c.QueryCount() != int64(len(pts)) {
		t.Errorf("client QueryCount = %d, want %d", c.QueryCount(), len(pts))
	}

	// LNR twin.
	lnr, err := c.QueryLNRBatch(ctx, pts[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lnr) != 2 || len(lnr[0]) == 0 {
		t.Fatalf("LNR batch: %+v", lnr)
	}
}

// TestBatchSelectionPassThrough: the declarative filter rides in the
// batch body.
func TestBatchSelectionPassThrough(t *testing.T) {
	svc := testService(60, 5, 0, 3)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{Category: "school"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := c.QueryLRBatch(context.Background(), []geom.Point{geom.Pt(50, 50)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers[0]) == 0 {
		t.Fatal("no results")
	}
	for _, r := range answers[0] {
		if r.Category != "school" {
			t.Errorf("selection leaked %q", r.Category)
		}
	}
	// Per-call functional filters cannot cross the wire.
	if _, err := c.QueryLRBatch(context.Background(), []geom.Point{geom.Pt(1, 1)}, lbs.CategoryFilter("cafe")); err == nil {
		t.Error("per-call filter should be rejected")
	}
}

// TestBatchBudgetExhaustion: partial batches surface the covered
// prefix plus ErrBudgetExhausted; a fully dead budget behaves like
// the single-query path (429 → ErrBudgetExhausted).
func TestBatchBudgetExhaustion(t *testing.T) {
	svc := testService(50, 2, 4, 5)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{geom.Pt(10, 10), geom.Pt(20, 20), geom.Pt(30, 30), geom.Pt(40, 40), geom.Pt(50, 50), geom.Pt(60, 60)}
	answers, err := c.QueryLRBatch(context.Background(), pts, nil)
	if !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	for i := 0; i < 4; i++ {
		if answers[i] == nil {
			t.Errorf("answer %d nil, want served", i)
		}
	}
	for i := 4; i < 6; i++ {
		if answers[i] != nil {
			t.Errorf("answer %d served beyond budget", i)
		}
	}
	if c.QueryCount() != 4 {
		t.Errorf("client QueryCount = %d, want 4", c.QueryCount())
	}
	// Budget now fully dead.
	if _, err := c.QueryLRBatch(context.Background(), pts[:2], nil); !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Errorf("dead-budget err = %v, want ErrBudgetExhausted", err)
	}
}

// TestBatchEndpointValidation: malformed bodies, GETs and oversized
// batches are rejected with 400/ error statuses.
func TestBatchEndpointValidation(t *testing.T) {
	svc := testService(10, 2, 0, 7)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/query/lr:batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, body := range []string{"", "{", `{"points":[]}`} {
		resp := post(body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Oversized batch.
	var sb bytes.Buffer
	sb.WriteString(`{"points":[`)
	for i := 0; i <= maxBatchPoints; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"x":1,"y":2}`)
	}
	sb.WriteString(`]}`)
	resp := post(sb.String())
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch: status %d, want 400", resp.StatusCode)
	}
	// GET on a batch endpoint.
	getResp, err := http.Get(ts.URL + "/v1/query/lr:batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET batch: status %d, want 400", getResp.StatusCode)
	}
	if svc.QueryCount() != 0 {
		t.Errorf("invalid requests consumed %d queries", svc.QueryCount())
	}
}

// TestBatchBodyCap: a batch body is read whole under the
// maxBatchBodyBytes cap. A body of exactly the cap is decoded (bytes
// after its first JSON value ignored); one byte more is refused, even
// when its first JSON value ends well inside the cap.
func TestBatchBodyCap(t *testing.T) {
	value := `{"points":[{"x":1,"y":2}]}`
	for _, size := range []int{maxBatchBodyBytes, maxBatchBodyBytes + 1} {
		body := value + strings.Repeat(" ", size-len(value))
		r := httptest.NewRequest(http.MethodPost, "/v1/query/lr:batch", strings.NewReader(body))
		pts, _, err := parseBatch(httptest.NewRecorder(), r)
		if ok := size <= maxBatchBodyBytes; (err == nil) != ok || (ok && len(pts) != 1) {
			t.Errorf("%d-byte body: %d points, error %v", size, len(pts), err)
		}
	}
}

// TestClientBatchChunksOversize: a client batch beyond the server's
// per-POST point cap is split transparently into chunked requests
// instead of failing with a 400.
func TestClientBatchChunksOversize(t *testing.T) {
	svc := testService(40, 2, 0, 9)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := maxBatchPoints + 50
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i%100), float64(i%100))
	}
	answers, err := c.QueryLRBatch(context.Background(), pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != n {
		t.Fatalf("answers: %d, want %d", len(answers), n)
	}
	for i, a := range answers {
		if a == nil {
			t.Fatalf("answer %d nil", i)
		}
	}
	if svc.QueryCount() != int64(n) {
		t.Errorf("server QueryCount = %d, want %d", svc.QueryCount(), n)
	}
}

// TestClientBatchChunkBudgetDeath: when the budget dies in a later
// chunk, earlier chunks' answers are preserved alongside the error.
func TestClientBatchChunkBudgetDeath(t *testing.T) {
	budget := int64(maxBatchPoints + 10)
	svc := testService(40, 1, budget, 3)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := maxBatchPoints + 30
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i%100), float64(i%100))
	}
	answers, err := c.QueryLRBatch(context.Background(), pts, nil)
	if !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	served := 0
	for _, a := range answers {
		if a != nil {
			served++
		}
	}
	if served != int(budget) {
		t.Errorf("served %d answers, want %d (the budget)", served, budget)
	}
	if answers[0] == nil || answers[n-1] != nil {
		t.Errorf("budget death alignment wrong: first %v, last %v", answers[0] != nil, answers[n-1] != nil)
	}
}

// TestRemoteBatchedEstimationRun drives a full estimator through the
// remote batch path: NNO over an httpapi.Client issues one POST per
// probe set instead of one GET per probe, so the run needs fewer HTTP
// requests than queries.
func TestRemoteBatchedEstimationRun(t *testing.T) {
	svc := testService(60, 1, 0, 11)
	inner := NewServer(svc)
	requests := 0
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counting)
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nno := core.NewNNOBaseline(c, core.NNOOptions{Seed: 4})
	res, err := nno.Run(context.Background(), countAll(t),
		core.WithMaxSamples(20))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples != 20 {
		t.Fatalf("samples = %d, want 20", res[0].Samples)
	}
	queries := svc.QueryCount()
	if int64(requests) >= queries {
		t.Errorf("batching saved nothing: %d HTTP requests for %d queries", requests, queries)
	}
	t.Logf("%d HTTP requests served %d queries (%.1f queries/request)",
		requests, queries, float64(queries)/float64(requests))
}

// TestServerOverCachedBackend: NewServer accepts a CachedOracle
// gateway; repeated remote queries hit the cache instead of the
// budget.
func TestServerOverCachedBackend(t *testing.T) {
	svc := testService(30, 2, 2, 13)
	cache := lbs.NewCachedOracle(svc, lbs.CacheOptions{Capacity: 128})
	ts := httptest.NewServer(NewServer(cache))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Pt(42, 42)
	for i := 0; i < 5; i++ {
		if _, err := c.QueryLR(context.Background(), p, nil); err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
	}
	if svc.QueryCount() != 1 {
		t.Errorf("service answered %d times, want 1 (cache served the rest)", svc.QueryCount())
	}
	if st := cache.Stats(); st.Hits != 4 {
		t.Errorf("cache hits = %d, want 4", st.Hits)
	}
}

// countingTransport counts the HTTP requests a client sends.
type countingTransport struct {
	n atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// serialOracle hides an oracle's batch path.
type serialOracle struct{ core.Oracle }

// TestLNRBatchedOverHTTP: an LNR run over the HTTP client batches its
// cell-search probes through /v1/query/lnr:batch, yet charges the
// server the same queries and estimates bit for bit what the serial
// cell search does in process, with one HTTP request per oracle call.
func TestLNRBatchedOverHTTP(t *testing.T) {
	for _, h := range []int{1, 3} {
		ref := testService(600, 5, 0, 4)
		serial := core.NewLNRAggregator(serialOracle{ref}, core.LNROptions{Seed: 21, H: h})
		want, err := serial.Run(context.Background(), countAll(t), core.WithMaxSamples(3))
		if err != nil {
			t.Fatal(err)
		}

		svc := testService(600, 5, 0, 4)
		ts := httptest.NewServer(NewServer(svc))
		tr := &countingTransport{}
		c, err := NewClient(context.Background(), ts.URL, Selection{}, &http.Client{Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		meta := tr.n.Load()
		agg := core.NewLNRAggregator(c, core.LNROptions{Seed: 21, H: h})
		got, err := agg.Run(context.Background(), countAll(t), core.WithMaxSamples(3))
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[0].Estimate) != math.Float64bits(want[0].Estimate) ||
			math.Float64bits(got[0].StdErr) != math.Float64bits(want[0].StdErr) {
			t.Errorf("h=%d: HTTP estimate %v ± %v, in-process serial %v ± %v",
				h, got[0].Estimate, got[0].StdErr, want[0].Estimate, want[0].StdErr)
		}
		if svc.QueryCount() != ref.QueryCount() || c.QueryCount() != ref.QueryCount() {
			t.Errorf("h=%d: server charged %d, client counted %d, serial run %d",
				h, svc.QueryCount(), c.QueryCount(), ref.QueryCount())
		}
		trips := agg.Stats().RoundTrips
		if reqs := tr.n.Load() - meta; reqs != trips {
			t.Errorf("h=%d: %d HTTP requests for %d oracle calls", h, reqs, trips)
		}
		if float64(ref.QueryCount()) < 2*float64(trips) {
			t.Errorf("h=%d: %d round trips for %d queries: under 2 queries per call", h, trips, ref.QueryCount())
		}
	}
}
