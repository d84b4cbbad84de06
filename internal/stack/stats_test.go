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

	"repro/internal/geom"
	"repro/internal/httpapi"
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
		st, err := s.Build(context.Background())
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
// repeats, query a cached 4-shard federation whose members run
// zero-rate fault injectors: every answered point is one cache hit,
// miss or bypass; every miss or bypass is one logical federation
// query; every upstream subquery is one member query and one member
// injector call.
func TestStatsAccountingConcurrent(t *testing.T) {
	s := base()
	s.Shards, s.CacheSize, s.FaultSpec = 4, 64, "seed=3,transient=0"
	st, err := s.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewServerWith(st.Querier, httpapi.ServerOptions{Jobs: st.Jobs}))
	defer ts.Close()

	b := st.Querier.Bounds()
	rng := rand.New(rand.NewSource(5))
	randomPoint := func(rng *rand.Rand) geom.Point {
		return geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
	}
	hot := make([]geom.Point, 16)
	for i := range hot {
		hot[i] = randomPoint(rng)
	}
	var answered atomic.Int64
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
				resp, err := http.Get(fmt.Sprintf("%s%s?x=%v&y=%v", ts.URL, path, p.X, p.Y))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s %v: status %d", path, p, resp.StatusCode)
					continue
				}
				answered.Add(1)
			}
		}(rand.New(rand.NewSource(int64(g))))
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Cache      struct{ Hits, Misses, Bypasses int64 }
		Federation struct {
			Logical, Upstream int64
			Shards            []struct{ Queries int64 }
		}
		Faults struct{ Calls int64 }
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	c, f := body.Cache, body.Federation
	if got := c.Hits + c.Misses + c.Bypasses; got != answered.Load() {
		t.Errorf("cache hits %d + misses %d + bypasses %d = %d, want the %d answered points", c.Hits, c.Misses, c.Bypasses, got, answered.Load())
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
}
