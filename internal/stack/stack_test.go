package stack

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/httpapi"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// base is the valid Spec every test case starts from.
func base() Spec {
	return Spec{Scenario: "schools", N: 400, Seed: 7, K: 5}
}

func TestValidate(t *testing.T) {
	dir := t.TempDir()
	geoPack := filepath.Join(dir, "geo.lbspack")
	sc, _ := workload.ByName("geo-us", 50, 1, "")
	if err := store.WritePackMetric(geoPack, sc.DB, sc.Metric, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(s *Spec)
		want string // error substring; "" = valid
	}{
		{"valid", func(s *Spec) {}, ""},
		{"valid geodesic", func(s *Spec) { s.Scenario, s.Metric, s.Density = "geo-us", "haversine", "zipf" }, ""},
		{"valid dataset metric", func(s *Spec) { s.Dataset, s.Metric = geoPack, "haversine" }, ""},
		{"valid upstream metric", func(s *Spec) { s.Upstream, s.Metric = "http://a,http://b", "haversine" }, ""},
		{"valid live layers", func(s *Spec) { s.Live, s.Shards, s.CompactThreshold, s.CacheSize = true, 4, -1, 64 }, ""},
		{"valid shards one upstream", func(s *Spec) { s.Upstream, s.Shards = "http://a", 1 }, ""},

		// Today's fatals.
		{"bad fault spec", func(s *Spec) { s.FaultSpec = "transient" }, "-fault-spec: "},
		{"bad density", func(s *Spec) { s.Scenario, s.Density = "cities", "uniform" }, "-density: "},
		{"bad metric", func(s *Spec) { s.Metric = "manhattan" }, "-metric: "},
		{"metric vs scenario", func(s *Spec) { s.Scenario, s.Metric = "geo-china", "euclidean" }, "-metric euclidean, but the backing data is laid out for haversine"},
		{"metric vs dataset", func(s *Spec) { s.Dataset, s.Metric = geoPack, "euclidean" }, "-metric euclidean, but the backing data is laid out for haversine"},
		{"data dir with upstream", func(s *Spec) { s.DataDir, s.Upstream = dir, "http://a" }, "-data-dir is incompatible with -upstream"},
		{"data dir with live shards", func(s *Spec) { s.DataDir, s.Live, s.Shards = dir, true, 2 }, "-data-dir with -live -shards is unsupported"},
		{"live with upstream", func(s *Spec) { s.Live, s.Upstream = true, "http://a" }, "-live is incompatible with -upstream"},
		{"unknown scenario", func(s *Spec) { s.Scenario = "atlantis" }, `unknown scenario "atlantis"`},

		// Flag combinations that used to be silently ignored.
		{"shards with upstream", func(s *Spec) { s.Shards, s.Upstream = 4, "http://a" }, "-shards is incompatible with -upstream"},
		{"dataset with upstream", func(s *Spec) { s.Dataset, s.Upstream = geoPack, "http://a" }, "-dataset is incompatible with -upstream"},
		{"compact threshold without live", func(s *Spec) { s.CompactThreshold = 100 }, "-compact-threshold applies only with -live"},
		{"density on fixed-density scenario", func(s *Spec) { s.Density = "zipf" }, `-density applies to the cities/geo-us/geo-china scenarios; "schools" has a fixed density`},
	}
	matched := map[string]bool{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			c.edit(&s)
			err := s.Validate()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("Validate: %v, want nil", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("Validate: %v, want an error containing %q", err, c.want)
			}
			if err != nil {
				matched[err.Error()] = true
			}
		})
	}
	for _, r := range rules {
		if !matched[r.err] {
			t.Errorf("rule %q has no test case", r.err)
		}
	}
}

// stats fetches /v1/stats from a server over st, keyed by section.
func stats(t *testing.T, st *Stack) map[string]json.RawMessage {
	t.Helper()
	ts := httptest.NewServer(httpapi.NewServerWith(st.Querier, httpapi.ServerOptions{Jobs: st.Jobs, Mutator: st.Mutator}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// sections lists the optional /v1/stats sections a server over st
// reports.
func sections(t *testing.T, st *Stack) []string {
	t.Helper()
	body := stats(t, st)
	var out []string
	for _, k := range []string{"cache", "federation", "faults", "live", "store"} {
		if _, ok := body[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

// statsField reads one numeric field of one /v1/stats section.
func statsField(t *testing.T, st *Stack, section, field string) float64 {
	t.Helper()
	var sec map[string]any
	if err := json.Unmarshal(stats(t, st)[section], &sec); err != nil {
		t.Fatalf("/v1/stats %s: %v", section, err)
	}
	v, ok := sec[field].(float64)
	if !ok {
		t.Fatalf("/v1/stats %s.%s missing: %v", section, field, sec)
	}
	return v
}

// assertSameAnswers checks that q answers 64 fixed points exactly as a
// plain lbs.Service over the base scenario: LR IDs and distances bit
// for bit, LNR IDs in rank order.
func assertSameAnswers(t *testing.T, q lbs.Querier) {
	t.Helper()
	sc, err := workload.ByName("schools", 400, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	ref := lbs.NewService(sc.DB, lbs.Options{K: 5})
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		p := geom.Pt(sc.Bounds.Min.X+rng.Float64()*sc.Bounds.Width(), sc.Bounds.Min.Y+rng.Float64()*sc.Bounds.Height())
		want, err := ref.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatalf("LR %v: %v", p, err)
		}
		if len(got) != len(want) {
			t.Fatalf("LR %v: %d records, want %d", p, len(got), len(want))
		}
		for j := range want {
			if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
				t.Fatalf("LR %v rank %d: (%d, %v), want (%d, %v)", p, j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
			}
		}
		wantN, err := ref.QueryLNR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := q.QueryLNR(ctx, p, nil)
		if err != nil {
			t.Fatalf("LNR %v: %v", p, err)
		}
		if !reflect.DeepEqual(ids(gotN), ids(wantN)) {
			t.Fatalf("LNR %v: %v, want %v", p, ids(gotN), ids(wantN))
		}
	}
}

func ids(recs []lbs.LNRRecord) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

func TestBuildCompositions(t *testing.T) {
	cases := []struct {
		name     string
		edit     func(s *Spec)
		label    string
		sections []string
	}{
		{"single service", func(s *Spec) {}, "schools (400 tuples, k=5)", nil},
		{"shards", func(s *Spec) { s.Shards = 4 }, "schools (400 tuples, k=5), 4 shards", []string{"federation"}},
		{"shards zero-rate faults", func(s *Spec) { s.Shards, s.FaultSpec = 4, "seed=3,transient=0" },
			"schools (400 tuples, k=5), 4 shards, faulted members", []string{"federation", "faults"}},
		{"live", func(s *Spec) { s.Live = true }, "schools (400 tuples, k=5), live", []string{"live"}},
		{"live shards", func(s *Spec) { s.Live, s.Shards = true, 4 }, "schools (400 tuples, k=5), 4 live shards", []string{"federation", "live"}},
		{"live cache", func(s *Spec) { s.Live, s.CacheSize = true, 256 }, "schools (400 tuples, k=5), live, cache=256", []string{"cache", "live"}},
		{"whole-backend faults", func(s *Spec) { s.FaultSpec = "transient=0" }, "schools (400 tuples, k=5), faulted", []string{"faults"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			c.edit(&s)
			st, err := s.Build(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Label != c.label {
				t.Errorf("label %q, want %q", st.Label, c.label)
			}
			if st.Name != "usa-schools" || st.Tuples != 400 {
				t.Errorf("data %s/%d, want usa-schools/400", st.Name, st.Tuples)
			}
			if (st.Mutator != nil) != s.Live {
				t.Errorf("mutator %T with live=%v", st.Mutator, s.Live)
			}
			assertSameAnswers(t, st.Querier)
			if got := sections(t, st); !reflect.DeepEqual(got, c.sections) {
				t.Errorf("/v1/stats sections %v, want %v", got, c.sections)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBuildDurableWarmStart: a cold -data-dir start ingests and packs
// the scenario; Close checkpoints the live epoch and snapshots the
// cache; the warm start restores both without regenerating.
func TestBuildDurableWarmStart(t *testing.T) {
	s := base()
	s.Live, s.CacheSize, s.DataDir = true, 256, t.TempDir()
	ctx := context.Background()

	cold, err := s.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := "schools (400 tuples, k=5, live, durable epoch 0), cache=256"; cold.Label != want {
		t.Errorf("cold label %q, want %q", cold.Label, want)
	}
	// Insert and delete one tuple: the epoch advances to 2 and the
	// contents end where they started.
	for _, op := range []live.Op{
		{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: 1 << 40, Loc: geom.Pt(100, 100), Category: "school"}},
		{Kind: live.OpDelete, ID: 1 << 40},
	} {
		if r := cold.Mutator.Apply(ctx, []live.Op{op}); r[0].Err != nil {
			t.Fatal(r[0].Err)
		}
	}
	assertSameAnswers(t, cold.Querier)
	if got, want := sections(t, cold), []string{"cache", "live", "store"}; !reflect.DeepEqual(got, want) {
		t.Errorf("cold /v1/stats sections %v, want %v", got, want)
	}
	entries := statsField(t, cold, "cache", "entries")
	if entries == 0 {
		t.Fatal("cold run cached nothing")
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := s.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if want := "schools (400 tuples, k=5, live, durable epoch 2), cache=256"; warm.Label != want {
		t.Errorf("warm label %q, want %q", warm.Label, want)
	}
	api := httpapi.NewServerWith(warm.Querier, httpapi.ServerOptions{Jobs: warm.Jobs, Mutator: warm.Mutator})
	line, err := warm.Recover(api.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "recovered "+s.DataDir+": epoch=2 ") {
		t.Errorf("recovery line %q", line)
	}
	if got := statsField(t, warm, "cache", "restored"); got != entries {
		t.Errorf("warm cache restored %v entries, cold run held %v", got, entries)
	}
	if got := statsField(t, warm, "live", "epoch"); got != 2 {
		t.Errorf("warm live epoch %v, want 2", got)
	}
	assertSameAnswers(t, warm.Querier)
}

// TestBuildUpstream federates two running servers, each serving one
// spatial partition of the base scenario.
func TestBuildUpstream(t *testing.T) {
	sc, err := workload.ByName("schools", 400, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, part := range shard.Partition(sc.DB, 2) {
		ts := httptest.NewServer(httpapi.NewServer(lbs.NewService(part, lbs.Options{K: 5})))
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	s := base()
	s.Upstream = strings.Join(urls, ", ")
	st, err := s.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := "federation of 2 upstreams, k=5"; st.Label != want {
		t.Errorf("label %q, want %q", st.Label, want)
	}
	assertSameAnswers(t, st.Querier)
	if got, want := sections(t, st), []string{"federation"}; !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/stats sections %v, want %v", got, want)
	}
}
