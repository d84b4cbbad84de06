package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestEstimateAgainstShardedBackendMatchesSingle is the federation
// acceptance pin: a full estimation job submitted over the wire
// against a sharded backend reproduces, for the same seed and budget,
// exactly the estimates of the same job against a single service over
// the union database.
func TestEstimateAgainstShardedBackendMatchesSingle(t *testing.T) {
	specs := []core.AggSpec{
		core.CountSpec(),
		core.SumSpec("enrollment"),
	}
	run := func(backend lbs.Querier) *jobs.View {
		t.Helper()
		srv := httptest.NewServer(NewServer(backend))
		defer srv.Close()
		c := newJobsClient(t, srv)
		ctx := context.Background()
		v, err := c.Estimate(ctx, jobs.Spec{
			Method:     jobs.MethodLR,
			Seed:       42,
			Aggregates: specs,
			Options:    jobs.RunOptions{MaxQueries: 1200},
		})
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.WaitJob(ctx, v.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != jobs.StateDone {
			t.Fatalf("job state %s (%s)", final.State, final.Error)
		}
		return final
	}

	sc := workload.USASchools(250, 7)
	single := run(lbs.NewService(sc.DB, lbs.Options{K: 5}))
	for _, n := range []int{2, 4, 8} {
		router, err := shard.FromPartsWrapped(shard.Partition(workload.USASchools(250, 7).DB, n), lbs.Options{K: 5}, shard.DefaultResilience(), nil)
		if err != nil {
			t.Fatal(err)
		}
		sharded := run(router)
		if !reflect.DeepEqual(single.Results, sharded.Results) {
			t.Fatalf("shards=%d: estimates diverge\nsingle:  %+v\nsharded: %+v",
				n, single.Results, sharded.Results)
		}
		if single.Samples != sharded.Samples || single.Queries != sharded.Queries {
			t.Fatalf("shards=%d: cost diverges: samples %d vs %d, queries %d vs %d",
				n, single.Samples, sharded.Samples, single.Queries, sharded.Queries)
		}
	}
}

// TestFederatedRemoteUpstreams exercises the -upstream deployment
// shape end to end: each shard served by its own HTTP server, the
// router federating httpapi.Clients, answers bit-identical to a
// single in-process service.
func TestFederatedRemoteUpstreams(t *testing.T) {
	db := workload.USASchools(200, 13).DB
	parts := shard.Partition(db, 3)
	var shards []shard.Shard
	for _, p := range parts {
		srv := httptest.NewServer(NewServer(lbs.NewService(p, lbs.Options{K: 5})))
		defer srv.Close()
		c, err := NewClient(context.Background(), srv.URL, Selection{}, srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, shard.Shard{Querier: c, Region: c.Bounds()})
	}
	router, err := shard.NewRouter(shards, lbs.Options{K: 5}, shard.DefaultResilience())
	if err != nil {
		t.Fatal(err)
	}
	single := lbs.NewService(db, lbs.Options{K: 5})
	ctx := context.Background()
	b := db.Bounds()
	for i := 0; i < 30; i++ {
		q := geom.Pt(
			b.Min.X+float64(i)*b.Width()/30,
			b.Min.Y+float64((i*7)%30)*b.Height()/30)
		want, err1 := single.QueryLR(ctx, q, nil)
		got, err2 := router.QueryLR(ctx, q, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("point %d: %v %v", i, err1, err2)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("point %d (%v): remote federation diverges\nwant %+v\ngot  %+v", i, q, want, got)
		}
	}
	// Batch path over the wire too.
	pts := []geom.Point{b.Min, b.Center(), b.Max, geom.Pt(b.Min.X-5, b.Max.Y+5)}
	want, _ := single.QueryLRBatch(ctx, pts, nil)
	got, err := router.QueryLRBatch(ctx, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("remote federated batch diverges")
	}
}

// jsonBody marshals v into a request body reader.
func jsonBody(t *testing.T, v interface{}) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// blockingQuerier wraps a Querier, parking every query until released
// — a stand-in backend that keeps estimation jobs running for as long
// as a test needs the job table full.
type blockingQuerier struct {
	lbs.Querier
	release chan struct{}
}

func (b *blockingQuerier) wait(ctx context.Context) error {
	select {
	case <-b.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *blockingQuerier) QueryLR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LRRecord, error) {
	if err := b.wait(ctx); err != nil {
		return nil, err
	}
	return b.Querier.QueryLR(ctx, q, f)
}

func (b *blockingQuerier) QueryLNR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LNRRecord, error) {
	if err := b.wait(ctx); err != nil {
		return nil, err
	}
	return b.Querier.QueryLNR(ctx, q, f)
}

func (b *blockingQuerier) QueryLRBatch(ctx context.Context, pts []geom.Point, f lbs.Filter) ([][]lbs.LRRecord, error) {
	if err := b.wait(ctx); err != nil {
		return nil, err
	}
	return b.Querier.QueryLRBatch(ctx, pts, f)
}

func (b *blockingQuerier) QueryLNRBatch(ctx context.Context, pts []geom.Point, f lbs.Filter) ([][]lbs.LNRRecord, error) {
	if err := b.wait(ctx); err != nil {
		return nil, err
	}
	return b.Querier.QueryLNRBatch(ctx, pts, f)
}

// TestJobsExhaustedSurfacesAs429 pins the capacity mapping: Create at
// MaxJobs with every job running answers 429 with the distinct
// jobs_exhausted code — not a generic 500, not budget_exhausted — and
// capacity clearing lets the next submission through.
func TestJobsExhaustedSurfacesAs429(t *testing.T) {
	backend := &blockingQuerier{
		Querier: jobsTestService(t, 100, 0),
		release: make(chan struct{}),
	}
	srv := httptest.NewServer(NewServerWith(backend, ServerOptions{
		Jobs: jobs.ManagerOptions{MaxJobs: 1},
	}))
	defer srv.Close()
	c := newJobsClient(t, srv)
	ctx := context.Background()

	spec := jobs.Spec{
		Method:     jobs.MethodLR,
		Seed:       1,
		Aggregates: []core.AggSpec{core.CountSpec()},
		Options:    jobs.RunOptions{MaxSamples: 1},
	}
	first, err := c.Estimate(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Table full, job parked on the blocking backend: raw POST to see
	// the wire shape.
	resp, err := http.Post(srv.URL+"/v1/estimate", "application/json",
		jsonBody(t, spec))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&e); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full table: status %d, want 429", resp.StatusCode)
	}
	if e.Code != "jobs_exhausted" {
		t.Fatalf("full table: code %q, want jobs_exhausted", e.Code)
	}

	// The typed client surfaces it as jobs.ErrTableFull.
	if _, err := c.Estimate(ctx, spec); !errors.Is(err, jobs.ErrTableFull) {
		t.Fatalf("client error %v, want jobs.ErrTableFull", err)
	}

	// Release the parked job; once it settles, capacity clears.
	close(backend.release)
	if _, err := c.WaitJob(ctx, first.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Estimate(ctx, spec); err != nil {
		t.Fatalf("after capacity cleared: %v", err)
	}
}

// TestEstimateRetryPolicy pins the submission retry contract: capacity
// 429s are waited out (they provably created no job), budget 429s are
// never retried.
func TestEstimateRetryPolicy(t *testing.T) {
	var capacityAttempts, budgetAttempts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/meta", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, metaResponse{K: 5, MaxX: 1, MaxY: 1})
	})
	mux.HandleFunc("/capacity/v1/meta", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, metaResponse{K: 5, MaxX: 1, MaxY: 1})
	})
	mux.HandleFunc("/capacity/v1/estimate", func(w http.ResponseWriter, r *http.Request) {
		if capacityAttempts.Add(1) < 3 {
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "full", Code: codeJobsExhausted})
			return
		}
		writeJSON(w, http.StatusAccepted, jobs.View{ID: "job-1", State: jobs.StateRunning})
	})
	mux.HandleFunc("/budget/v1/meta", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, metaResponse{K: 5, MaxX: 1, MaxY: 1})
	})
	mux.HandleFunc("/budget/v1/estimate", func(w http.ResponseWriter, r *http.Request) {
		budgetAttempts.Add(1)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "spent", Code: codeBudgetExhausted})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	spec := jobs.Spec{Method: jobs.MethodLR, Seed: 1, Aggregates: []core.AggSpec{core.CountSpec()}}
	ctx := context.Background()

	cCap, err := NewClient(ctx, srv.URL+"/capacity", Selection{}, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	v, err := cCap.Estimate(ctx, spec)
	if err != nil {
		t.Fatalf("capacity 429s should be retried through: %v", err)
	}
	if v.ID != "job-1" || capacityAttempts.Load() != 3 {
		t.Fatalf("view %+v after %d attempts, want job-1 after 3", v, capacityAttempts.Load())
	}

	cBud, err := NewClient(ctx, srv.URL+"/budget", Selection{}, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cBud.Estimate(ctx, spec); !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("budget 429: err %v, want ErrBudgetExhausted", err)
	}
	if budgetAttempts.Load() != 1 {
		t.Fatalf("budget 429 retried: %d attempts, want 1", budgetAttempts.Load())
	}
}

// TestStatsChainWalks pins the generic Inner() chain walk: stacked
// wrappers all report, whichever layer owns which stats surface.
func TestStatsChainWalks(t *testing.T) {
	ctx := context.Background()
	getStats := func(t *testing.T, backend lbs.Querier) statsResponse {
		t.Helper()
		srv := httptest.NewServer(NewServer(backend))
		defer srv.Close()
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	t.Run("scoped-cached-service", func(t *testing.T) {
		svc := jobsTestService(t, 80, 300)
		cache := lbs.NewCachedOracle(svc, lbs.CacheOptions{Capacity: 32})
		scoped := lbs.NewScopedQuerier(cache, 0)
		for i := 0; i < 2; i++ { // miss then hit
			if _, err := scoped.QueryLR(ctx, svc.Bounds().Min, nil); err != nil {
				t.Fatal(err)
			}
		}
		st := getStats(t, scoped)
		if st.Cache == nil || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
			t.Fatalf("cache stats not reported through scope: %+v", st.Cache)
		}
		if st.BudgetRemaining != 299 {
			t.Fatalf("deepest budget not reported: %d", st.BudgetRemaining)
		}
	})

	t.Run("cached-router", func(t *testing.T) {
		db := workload.USASchools(120, 3).DB
		router, err := shard.FromPartsWrapped(shard.Partition(db, 4), lbs.Options{K: 5, Budget: 100}, shard.DefaultResilience(), nil)
		if err != nil {
			t.Fatal(err)
		}
		cache := lbs.NewCachedOracle(router, lbs.CacheOptions{Capacity: 32})
		for i := 0; i < 2; i++ {
			if _, err := cache.QueryLR(ctx, db.Bounds().Center(), nil); err != nil {
				t.Fatal(err)
			}
		}
		st := getStats(t, cache)
		if st.Cache == nil || st.Cache.Hits != 1 {
			t.Fatalf("cache stats missing over cached router: %+v", st.Cache)
		}
		if st.Federation == nil || len(st.Federation.Shards) != 4 {
			t.Fatalf("federation stats missing through the cache: %+v", st.Federation)
		}
		if st.Federation.Logical != 1 {
			t.Fatalf("logical federation count %d, want 1 (hit is free)", st.Federation.Logical)
		}
		if st.BudgetRemaining != 99 {
			t.Fatalf("router budget not reported: %d", st.BudgetRemaining)
		}
	})
}

// TestRemoteFederationFilteredQueryIs400 pins the remote-member filter
// contract: functional filters cannot reach HTTP upstreams, so a
// filtered request against an -upstream federation front answers 400
// (a request problem: use per-selection upstream clients) — never a
// generic 500.
func TestRemoteFederationFilteredQueryIs400(t *testing.T) {
	db := workload.USASchools(60, 17).DB
	up := httptest.NewServer(NewServer(lbs.NewService(db, lbs.Options{K: 5})))
	defer up.Close()
	c, err := NewClient(context.Background(), up.URL, Selection{}, up.Client())
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.NewRouter([]shard.Shard{{Querier: c, Region: c.Bounds()}}, lbs.Options{K: 5}, shard.DefaultResilience())
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(NewServer(router))
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/lr?x=1&y=2&category=school")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("filtered query via remote federation: status %d, want 400", resp.StatusCode)
	}
	// Unfiltered queries keep working through the same front.
	resp2, err := http.Get(front.URL + "/v1/lr?x=1&y=2")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("unfiltered query: status %d", resp2.StatusCode)
	}
}
