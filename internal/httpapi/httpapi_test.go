package httpapi

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/shard"
	"repro/internal/workload"
)

func testService(n int, k int, budget int64, seed int64) *lbs.Service {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	pts := workload.ClusterMix(workload.ClusterMixConfig{
		Bounds: bounds, N: n, Clusters: 4, UniformFrac: 0.3, Seed: seed,
	})
	tuples := make([]lbs.Tuple, n)
	for i, p := range pts {
		cat := "cafe"
		if i%2 == 0 {
			cat = "school"
		}
		tuples[i] = lbs.Tuple{
			ID: int64(i + 1), Loc: p, Category: cat,
			Attrs: map[string]float64{"v": float64(i % 5)},
			Tags:  map[string]string{"flag": map[bool]string{true: "y", false: "n"}[i%3 == 0]},
		}
	}
	return lbs.NewService(lbs.NewDatabase(bounds, tuples), lbs.Options{K: k, Budget: budget})
}

func TestMetaRoundTrip(t *testing.T) {
	svc := testService(20, 4, 0, 1)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 4 {
		t.Errorf("k: %d", c.K())
	}
	if c.Bounds() != svc.Bounds() {
		t.Errorf("bounds: %+v", c.Bounds())
	}
}

func TestQueryLRRoundTrip(t *testing.T) {
	svc := testService(50, 3, 0, 2)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Pt(50, 50)
	got, err := c.QueryLR(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.QueryLR(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || !got[i].Loc.ApproxEq(want[i].Loc, 1e-9) {
			t.Fatalf("row %d: %+v vs %+v", i, got[i], want[i])
		}
		if got[i].Attrs["v"] != want[i].Attrs["v"] || got[i].Tags["flag"] != want[i].Tags["flag"] {
			t.Fatalf("attrs lost over the wire: %+v", got[i])
		}
	}
	if c.QueryCount() != 1 {
		t.Errorf("client query count: %d", c.QueryCount())
	}
}

func TestQueryLNRHidesLocations(t *testing.T) {
	svc := testService(30, 3, 0, 3)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, _ := NewClient(context.Background(), ts.URL, Selection{}, nil)
	got, err := c.QueryLNR(context.Background(), geom.Pt(30, 30), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("results: %d", len(got))
	}
	// Wire check: the LNR endpoint must not include coordinates.
	resp, err := ts.Client().Get(ts.URL + "/v1/lnr?x=30&y=30")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `"x"`) || strings.Contains(string(body), `"dist"`) {
		t.Errorf("LNR response leaks location fields: %s", body)
	}
}

func TestSelectionOverWire(t *testing.T) {
	svc := testService(60, 10, 0, 4)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, _ := NewClient(context.Background(), ts.URL, Selection{Category: "school"}, nil)
	got, err := c.QueryLR(context.Background(), geom.Pt(50, 50), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no results")
	}
	for _, r := range got {
		if r.Category != "school" {
			t.Fatalf("selection leak: %+v", r)
		}
	}
}

func TestPerCallFilterRejected(t *testing.T) {
	svc := testService(10, 2, 0, 5)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, _ := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if _, err := c.QueryLR(context.Background(), geom.Pt(1, 1), func(*lbs.Tuple) bool { return true }); err == nil {
		t.Errorf("functional filter should be rejected")
	}
	if _, err := c.QueryLNR(context.Background(), geom.Pt(1, 1), func(*lbs.Tuple) bool { return true }); err == nil {
		t.Errorf("functional filter should be rejected (LNR)")
	}
}

func TestBudgetExhaustionOverWire(t *testing.T) {
	svc := testService(10, 2, 3, 6)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c, _ := NewClient(context.Background(), ts.URL, Selection{}, nil)
	for i := 0; i < 3; i++ {
		if _, err := c.QueryLR(context.Background(), geom.Pt(1, 1), nil); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	_, err := c.QueryLR(context.Background(), geom.Pt(1, 1), nil)
	if !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted over the wire, got %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	svc := testService(10, 2, 0, 7)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/lr?x=abc&y=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad x: status %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/lr")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("missing coords: status %d", resp.StatusCode)
	}
}

// TestNonFiniteQueryRejected: NaN and ±Inf coordinates parse as
// floats but cannot be ranked by; every single-point endpoint rejects
// them with 400 before the backend is touched (nothing is charged),
// over a plain service and over a federation alike.
func TestNonFiniteQueryRejected(t *testing.T) {
	router, err := shard.FromPartsWrapped(shard.Partition(workload.USASchools(200, 7).DB, 4), lbs.Options{K: 5}, shard.DefaultResilience(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []struct {
		name string
		q    lbs.Querier
	}{{"service", testService(20, 5, 0, 7)}, {"router", router}} {
		ts := httptest.NewServer(NewServer(backend.q))
		for _, path := range []string{"/v1/lr", "/v1/lnr"} {
			for _, coords := range []string{"x=NaN&y=0", "x=Inf&y=0", "x=-Inf&y=5", "x=0&y=NaN"} {
				resp, err := ts.Client().Get(ts.URL + path + "?" + coords)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s %s?%s: status %d, want 400", backend.name, path, coords, resp.StatusCode)
				}
			}
		}
		ts.Close()
		if n := backend.q.QueryCount(); n != 0 {
			t.Errorf("%s: non-finite queries charged %d", backend.name, n)
		}
	}
}

// TestEndToEndEstimationOverHTTP is the headline integration test: the
// full LR-LBS-AGG estimator running against a service it can only
// reach over the network.
func TestEndToEndEstimationOverHTTP(t *testing.T) {
	svc := testService(80, 5, 0, 8)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	client, err := NewClient(context.Background(), ts.URL, Selection{}, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	agg := core.NewLRAggregator(client, core.DefaultLROptions(9))
	res, err := agg.Run(context.Background(), countAll(t), core.WithMaxSamples(150))
	if err != nil {
		t.Fatal(err)
	}
	truth := 80.0
	if res[0].StdErr > 0 {
		z := (res[0].Estimate - truth) / res[0].StdErr
		if z > 4 || z < -4 {
			t.Errorf("HTTP estimation off: %v (z=%v)", res[0].Estimate, z)
		}
	}
	if client.QueryCount() == 0 {
		t.Errorf("no queries counted on the client")
	}
	// LNR over HTTP as well.
	lnr := core.NewLNRAggregator(client, core.LNROptions{Seed: 10})
	resL, err := lnr.Run(context.Background(), countAll(t), core.WithMaxSamples(15))
	if err != nil {
		t.Fatal(err)
	}
	if resL[0].Samples != 15 {
		t.Errorf("LNR over HTTP: %+v", resL[0])
	}
}

// TestClientContextCancellation: both the construction-time meta probe
// and in-flight queries must honor context cancellation.
func TestClientContextCancellation(t *testing.T) {
	svc := testService(20, 3, 0, 9)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewClient(canceled, ts.URL, Selection{}, nil); err == nil {
		t.Fatal("NewClient with canceled context succeeded")
	}

	c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryLR(canceled, geom.Pt(1, 1), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query error = %v, want context.Canceled", err)
	}
	if _, err := c.QueryLR(context.Background(), geom.Pt(1, 1), nil); err != nil {
		t.Fatalf("live query after canceled one: %v", err)
	}
}
