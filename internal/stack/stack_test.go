package stack

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
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
	type row struct {
		name string
		edit func(s *Spec)
		want string // error substring; "" = valid
	}
	cases := []row{
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
	// Rows over a database handed to Build: it is the data, so -metric
	// names its geometry instead of asserting the scenario's.
	overDB := []row{
		{"valid database layers", func(s *Spec) { s.Live, s.Shards, s.CacheSize = true, 2, 64 }, ""},
		{"valid database metric", func(s *Spec) { s.Metric = "haversine" }, ""},
		{"database with dataset", func(s *Spec) { s.Dataset = geoPack }, "a database passed to Build is incompatible with -dataset and -upstream"},
		{"database with upstream", func(s *Spec) { s.Upstream = "http://a" }, "a database passed to Build is incompatible with -dataset and -upstream"},
	}
	matched := map[string]bool{}
	check := func(c row, db *lbs.Database) {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			c.edit(&s)
			err := s.Validate(db)
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
	for _, c := range cases {
		check(c, nil)
	}
	for _, c := range overDB {
		check(c, sc.DB)
	}
	for _, r := range rules {
		if !matched[r.err] {
			t.Errorf("rule %q has no test case", r.err)
		}
	}
}

// TestBuildRejectsServiceOptions: a k or coverage radius the service
// cannot run is an error naming its flag, from Build as from Validate,
// never a panic inside the service constructor. A NaN radius would
// serve as unlimited while turning every live dirty region into a NaN
// rect that invalidates no cached answer.
func TestBuildRejectsServiceOptions(t *testing.T) {
	cases := []struct {
		name string
		edit func(s *Spec)
		want string
	}{
		{"k 0", func(s *Spec) { s.K = 0 }, "-k: "},
		{"radius -1", func(s *Spec) { s.Radius = -1 }, "-radius: "},
		{"radius NaN", func(s *Spec) { s.Radius = math.NaN() }, "-radius: "},
		{"radius +Inf", func(s *Spec) { s.Radius = math.Inf(1) }, "-radius: "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			c.edit(&s)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Build panicked: %v", p)
				}
			}()
			for _, err := range []error{s.Validate(nil), buildErr(s)} {
				if err == nil || !strings.HasPrefix(err.Error(), c.want) {
					t.Errorf("error %v, want one starting %q", err, c.want)
				}
			}
		})
	}
}

// buildErr is the error of building s over its scenario.
func buildErr(s Spec) error {
	_, err := s.Build(context.Background(), nil)
	return err
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

// answerPoints is the reference service over the base scenario and
// the 64 fixed points the answer checks query.
func answerPoints(t *testing.T) (*lbs.Service, []geom.Point) {
	t.Helper()
	sc, err := workload.ByName("schools", 400, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 64)
	for i := range pts {
		pts[i] = geom.Pt(sc.Bounds.Min.X+rng.Float64()*sc.Bounds.Width(), sc.Bounds.Min.Y+rng.Float64()*sc.Bounds.Height())
	}
	return lbs.NewService(sc.DB, lbs.Options{K: 5}), pts
}

// sameLR fails unless got is want: IDs and distances bit for bit.
func sameLR(t *testing.T, what string, got, want []lbs.LRRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j].ID != want[j].ID || got[j].Dist != want[j].Dist {
			t.Fatalf("%s rank %d: (%d, %v), want (%d, %v)", what, j, got[j].ID, got[j].Dist, want[j].ID, want[j].Dist)
		}
	}
}

// assertSameAnswers checks that q answers 64 fixed points exactly as a
// plain lbs.Service over the base scenario: LR IDs and distances bit
// for bit, LNR IDs in rank order.
func assertSameAnswers(t *testing.T, q lbs.Querier) {
	t.Helper()
	ref, pts := answerPoints(t)
	ctx := context.Background()
	for _, p := range pts {
		want, err := ref.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatalf("LR %v: %v", p, err)
		}
		sameLR(t, fmt.Sprintf("LR %v", p), got, want)
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

// assertSameBatchAnswers checks that q's LR and LNR batches over the
// 64 points of assertSameAnswers equal the reference service's answers
// point by point.
func assertSameBatchAnswers(t *testing.T, q lbs.Querier) {
	t.Helper()
	ref, pts := answerPoints(t)
	ctx := context.Background()
	lr, err := q.QueryLRBatch(ctx, pts, nil)
	if err != nil || len(lr) != len(pts) {
		t.Fatalf("LR batch: %d answers, %v; want %d", len(lr), err, len(pts))
	}
	lnr, err := q.QueryLNRBatch(ctx, pts, nil)
	if err != nil || len(lnr) != len(pts) {
		t.Fatalf("LNR batch: %d answers, %v; want %d", len(lnr), err, len(pts))
	}
	for i, p := range pts {
		want, err := ref.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameLR(t, fmt.Sprintf("LR batch position %d", i), lr[i], want)
		wantN, err := ref.QueryLNR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lnr[i] == nil || !reflect.DeepEqual(ids(lnr[i]), ids(wantN)) {
			t.Fatalf("LNR batch position %d: %v, want %v", i, ids(lnr[i]), ids(wantN))
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
	type row struct {
		name     string
		edit     func(s *Spec)
		label    string
		sections []string
	}
	cases := []row{
		{"single service", func(s *Spec) {}, "schools (400 tuples, k=5)", nil},
		{"shards", func(s *Spec) { s.Shards = 4 }, "schools (400 tuples, k=5), 4 shards", []string{"federation"}},
		{"shards zero-rate faults", func(s *Spec) { s.Shards, s.FaultSpec = 4, "seed=3,transient=0" },
			"schools (400 tuples, k=5), 4 shards, faulted members", []string{"federation", "faults"}},
		{"live", func(s *Spec) { s.Live = true }, "schools (400 tuples, k=5), live", []string{"live"}},
		{"live shards", func(s *Spec) { s.Live, s.Shards = true, 4 }, "schools (400 tuples, k=5), 4 live shards", []string{"federation", "live"}},
		{"live cache", func(s *Spec) { s.Live, s.CacheSize = true, 256 }, "schools (400 tuples, k=5), live, cache=256", []string{"cache", "live"}},
		{"whole-backend faults", func(s *Spec) { s.FaultSpec = "transient=0" }, "schools (400 tuples, k=5), faulted", []string{"faults"}},
	}
	// Rows built over the base scenario's database handed to Build: the
	// -scenario flag names it, and the cold -data-dir row packs it for
	// the warm row after it.
	dir := t.TempDir()
	overDB := []row{
		{"database", func(s *Spec) {}, "schools (400 tuples, k=5)", nil},
		{"database shards", func(s *Spec) { s.Shards = 4 }, "schools (400 tuples, k=5), 4 shards", []string{"federation"}},
		{"database live", func(s *Spec) { s.Live = true }, "schools (400 tuples, k=5), live", []string{"live"}},
		{"database live shards", func(s *Spec) { s.Live, s.Shards = true, 2 }, "schools (400 tuples, k=5), 2 live shards", []string{"federation", "live"}},
		{"database cache", func(s *Spec) { s.CacheSize = 64 }, "schools (400 tuples, k=5), cache=64", []string{"cache"}},
		{"database cold data dir", func(s *Spec) { s.DataDir = dir }, "schools (400 tuples, k=5, durable cold ingest)", []string{"store"}},
		{"database warm data dir", func(s *Spec) { s.DataDir = dir }, "schools (400 tuples, k=5, durable warm start)", []string{"store"}},
	}
	check := func(c row, db *lbs.Database, name string) {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			c.edit(&s)
			st, err := s.Build(context.Background(), db)
			if err != nil {
				t.Fatal(err)
			}
			if st.Label != c.label {
				t.Errorf("label %q, want %q", st.Label, c.label)
			}
			if st.Name != name || st.Tuples != 400 {
				t.Errorf("data %s/%d, want %s/400", st.Name, st.Tuples, name)
			}
			if (st.Mutator != nil) != s.Live {
				t.Errorf("mutator %T with live=%v", st.Mutator, s.Live)
			}
			assertSameAnswers(t, st.Querier)
			assertSameBatchAnswers(t, st.Querier)
			if got := sections(t, st); !reflect.DeepEqual(got, c.sections) {
				t.Errorf("/v1/stats sections %v, want %v", got, c.sections)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range cases {
		check(c, nil, "usa-schools")
	}
	sc, err := workload.ByName("schools", 400, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range overDB {
		check(c, sc.DB, "schools")
	}
}

// TestBuildDataDirDatasetLoadError: a cold -data-dir start whose
// -dataset fails to load (a damaged data page; the header still reads,
// so Validate passes) reports the load error and packs nothing.
func TestBuildDataDirDatasetLoadError(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.lbspack")
	sc, _ := workload.ByName("schools", 400, 7, "")
	if err := store.WritePackMetric(bad, sc.DB, sc.Metric, 0, 512, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	data[512+100] ^= 0x40
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, live := range []bool{false, true} {
		s := Spec{Dataset: bad, K: 5, Live: live, DataDir: filepath.Join(dir, fmt.Sprint("store-", live))}
		st, err := s.Build(context.Background(), nil)
		if err == nil || !strings.Contains(err.Error(), "-dataset") {
			t.Fatalf("live=%v: Build = %v, %v; want the -dataset load error", live, st, err)
		}
		if _, err := os.Stat(filepath.Join(s.DataDir, "db.lbspack")); !os.IsNotExist(err) {
			t.Fatalf("live=%v: pack after a failed cold start: stat err = %v, want not-exist", live, err)
		}
	}
}

// TestBuildDurableWarmStart: a cold -data-dir start ingests and packs
// the scenario; Close checkpoints the live epoch and snapshots the
// cache; the warm start restores both without regenerating.
func TestBuildDurableWarmStart(t *testing.T) {
	s := base()
	s.Live, s.CacheSize, s.DataDir = true, 256, t.TempDir()
	ctx := context.Background()

	cold, err := s.Build(ctx, nil)
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

	warm, err := s.Build(ctx, nil)
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
	st, err := s.Build(context.Background(), nil)
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
