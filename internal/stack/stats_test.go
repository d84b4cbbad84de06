package stack

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/httpapi"
	"repro/internal/jobs"
)

var update = flag.Bool("update", false, "rewrite testdata/stats_golden.json from the current /v1/stats bodies")

// TestStatsGolden pins the decoded /v1/stats body of every golden
// composition after the same serial query sequence (assertSameAnswers
// twice, so caches replay the second pass). Run with -update to
// rewrite the golden file after an intended wire change.
func TestStatsGolden(t *testing.T) {
	// One composition per section combination lbsserve can build.
	compositions := []struct {
		name string
		edit func(s *Spec)
	}{
		{"single", func(s *Spec) {}},
		{"cache", func(s *Spec) { s.CacheSize = 64 }},
		{"shards", func(s *Spec) { s.Shards = 4 }},
		{"shards cache", func(s *Spec) { s.Shards, s.CacheSize = 4, 64 }},
		{"shards member faults", func(s *Spec) { s.Shards, s.FaultSpec = 4, "seed=3,transient=0" }},
		{"whole-backend faults", func(s *Spec) { s.FaultSpec = "seed=3,transient=0" }},
		{"live", func(s *Spec) { s.Live = true }},
		{"live shards", func(s *Spec) { s.Live, s.Shards = true, 4 }},
		{"live shards cache faults", func(s *Spec) { s.Live, s.Shards, s.CacheSize, s.FaultSpec = true, 4, 64, "seed=3,transient=0" }},
		{"live cache", func(s *Spec) { s.Live, s.CacheSize = true, 64 }},
		{"budget", func(s *Spec) { s.Budget = 100000 }},
		{"durable live cache", func(s *Spec) { s.DataDir, s.Live, s.CacheSize = t.TempDir(), true, 64 }},
	}
	got := map[string]map[string]any{}
	for _, c := range compositions {
		s := base()
		c.edit(&s)
		st, err := s.Build(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertSameAnswers(t, st.Querier)
		assertSameAnswers(t, st.Querier)
		body := map[string]any{}
		for k, raw := range stats(t, st) {
			var v any
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatal(err)
			}
			body[k] = v
		}
		got[c.name] = body
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join("testdata", "stats_golden.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]any
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range compositions {
		if !reflect.DeepEqual(got[c.name], want[c.name]) {
			g, _ := json.MarshalIndent(got[c.name], "", "  ")
			w, _ := json.MarshalIndent(want[c.name], "", "  ")
			t.Errorf("%s: /v1/stats body\n%s\nwant\n%s", c.name, g, w)
		}
	}
	if len(want) != len(compositions) {
		t.Errorf("golden file holds %d compositions, want %d", len(want), len(compositions))
	}
}

// TestStatsAccountingConcurrent checks /v1/stats against a model of
// the query path after 8 concurrent HTTP clients, with deliberate
// repeats, query a stack:
//   - "cache": a cached 4-shard federation whose members run zero-rate
//     fault injectors. Every answered point is one cache hit, miss or
//     bypass; every miss or bypass is one logical federation query;
//     every upstream subquery is one member query and one member
//     injector call.
//   - "budget": a budgeted 4-shard federation whose members inject
//     transient faults, with one LR job running through its own
//     ScopedQuerier beside the clients. The federation's lbs.Meter
//     charges every attempt and refunds every failed one, and the
//     job's scope does the same (at this fault rate the job usually
//     ends on a failed query, which its scope must refund), so the
//     charged units net of refunds are exactly the answered points plus
//     the job's answered queries, and the remaining budget is the
//     budget less them.
func TestStatsAccountingConcurrent(t *testing.T) {
	t.Run("cache", func(t *testing.T) {
		s := base()
		s.Shards, s.CacheSize, s.FaultSpec = 4, 64, "seed=3,transient=0"
		ts, b := serve(t, s)
		answered, failed := driveClients(t, ts.URL, b, 5)
		if failed != 0 {
			t.Errorf("%d points failed without injected faults", failed)
		}
		var body struct {
			Cache      struct{ Hits, Misses, Bypasses int64 }
			Federation struct {
				Logical, Upstream int64
				Shards            []struct{ Queries int64 }
			}
			Faults struct{ Calls int64 }
		}
		getStats(t, ts.URL, &body)
		c, f := body.Cache, body.Federation
		if got := c.Hits + c.Misses + c.Bypasses; got != answered {
			t.Errorf("cache hits %d + misses %d + bypasses %d = %d, want the %d answered points", c.Hits, c.Misses, c.Bypasses, got, answered)
		}
		if c.Hits == 0 {
			t.Error("repeated points never hit the cache")
		}
		if f.Logical != c.Misses+c.Bypasses {
			t.Errorf("federation logical %d, want cache misses + bypasses %d", f.Logical, c.Misses+c.Bypasses)
		}
		var members int64
		for _, sh := range f.Shards {
			members += sh.Queries
		}
		if len(f.Shards) != 4 || f.Upstream != members {
			t.Errorf("federation upstream %d, want the %d shards' queries %d", f.Upstream, len(f.Shards), members)
		}
		if body.Faults.Calls != f.Upstream {
			t.Errorf("member injector calls %d, want federation upstream %d", body.Faults.Calls, f.Upstream)
		}
	})

	t.Run("budget", func(t *testing.T) {
		const budget, jobCap = 5000, 300
		s := base()
		s.Shards, s.Budget, s.FaultSpec = 4, budget, "seed=3,transient=0.3"
		ts, b := serve(t, s)
		ctx := context.Background()
		c, err := httpapi.NewClient(ctx, ts.URL, httpapi.Selection{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		job, err := c.Estimate(ctx, jobs.Spec{
			Method: jobs.MethodLR, Seed: 1,
			Aggregates: []core.AggSpec{core.CountSpec()},
			Options:    jobs.RunOptions{MaxQueries: jobCap},
		})
		if err != nil {
			t.Fatal(err)
		}
		answered, failed := driveClients(t, ts.URL, b, 6)
		job, err = c.WaitJob(ctx, job.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Queries         int64
			BudgetRemaining int64 `json:"budget_remaining"`
			Federation      struct{ Logical, Partial int64 }
			Faults          struct{ Transients int64 }
		}
		getStats(t, ts.URL, &body)
		want := answered + job.Queries
		t.Logf("%d points answered, %d failed; job %s after %d queries; %d partial answers, %d injected transients",
			answered, failed, job.State, job.Queries, body.Federation.Partial, body.Faults.Transients)
		if body.Faults.Transients == 0 || failed == 0 {
			t.Fatalf("%d injected transients failed %d points: the refund path went unexercised", body.Faults.Transients, failed)
		}
		if job.Queries < 0 || job.Queries > jobCap {
			t.Errorf("job answered %d queries, want within its scope budget [0, %d]", job.Queries, jobCap)
		}
		if body.Federation.Logical != want || body.Queries != want {
			t.Errorf("meter charged %d net of refunds (service count %d), want %d answered points + %d job queries = %d",
				body.Federation.Logical, body.Queries, answered, job.Queries, want)
		}
		if body.BudgetRemaining != budget-want {
			t.Errorf("remaining budget %d, want %d − %d = %d", body.BudgetRemaining, budget, want, budget-want)
		}
	})
}

// serve builds s and serves it over HTTP for the test's lifetime,
// returning the server and the stack's bounds.
func serve(t *testing.T, s Spec) (*httptest.Server, geom.Rect) {
	t.Helper()
	st, err := s.Build(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewServerWith(st.Querier, httpapi.ServerOptions{Jobs: st.Jobs}))
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return ts, st.Querier.Bounds()
}

// driveClients has 8 concurrent clients GET 64 points each from
// /v1/lr or /v1/lnr, half of them from a 16-point hot set, and returns
// how many were answered (200) and how many failed.
func driveClients(t *testing.T, base string, b geom.Rect, seed int64) (answered, failed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	randomPoint := func(rng *rand.Rand) geom.Point {
		return geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
	}
	hot := make([]geom.Point, 16)
	for i := range hot {
		hot[i] = randomPoint(rng)
	}
	var ok, bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				p := hot[rng.Intn(len(hot))]
				if rng.Intn(2) == 0 {
					p = randomPoint(rng)
				}
				path := "/v1/lr"
				if rng.Intn(2) == 0 {
					path = "/v1/lnr"
				}
				resp, err := http.Get(fmt.Sprintf("%s%s?x=%v&y=%v", base, path, p.X, p.Y))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
					continue
				}
				ok.Add(1)
			}
		}(rand.New(rand.NewSource(seed*100 + int64(g))))
	}
	wg.Wait()
	return ok.Load(), bad.Load()
}

// getStats decodes the /v1/stats body into v.
func getStats(t *testing.T, base string, v any) {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
