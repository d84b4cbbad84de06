package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lbs"
	"repro/internal/workload"
)

func testBackend(t *testing.T, budget int64) *lbs.Service {
	t.Helper()
	sc := workload.USASchools(200, 3)
	return lbs.NewService(sc.DB, lbs.Options{K: 5, Budget: budget})
}

func waitSettled(t *testing.T, j *Job) View {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not settle: %v", j.ID, err)
	}
	return j.Snapshot()
}

func TestJobRunsToDone(t *testing.T) {
	m := NewManager(testBackend(t, 400), ManagerOptions{})
	j, err := m.Create(Spec{
		Method: MethodLR,
		Seed:   7,
		Aggregates: []core.AggSpec{
			core.CountSpec(),
			core.SumSpec("enrollment"),
			core.AvgSpec("enrollment"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitSettled(t, j)
	if v.State != StateDone {
		t.Fatalf("state %s (err %q), want done", v.State, v.Error)
	}
	if len(v.Results) != 3 {
		t.Fatalf("got %d results, want 3 (count, sum, avg)", len(v.Results))
	}
	if v.Samples <= 0 || v.Queries <= 0 {
		t.Fatalf("no work recorded: samples=%d queries=%d", v.Samples, v.Queries)
	}
	if v.Results[0].Estimate <= 0 {
		t.Errorf("count estimate %g, want > 0", float64(v.Results[0].Estimate))
	}
	// AVG = SUM/COUNT of the same physical run.
	wantAvg := float64(v.Results[1].Estimate) / float64(v.Results[0].Estimate)
	if got := float64(v.Results[2].Estimate); math.Abs(got-wantAvg) > 1e-9*math.Abs(wantAvg) {
		t.Errorf("avg %g, want sum/count = %g", got, wantAvg)
	}
	if v.TraceLen == 0 {
		t.Errorf("no trace recorded")
	}
}

func TestJobSeedReproducible(t *testing.T) {
	run := func() View {
		m := NewManager(testBackend(t, 300), ManagerOptions{})
		j, err := m.Create(Spec{
			Method:     MethodLR,
			Seed:       42,
			Aggregates: []core.AggSpec{core.CountSpec()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return waitSettled(t, j)
	}
	a, b := run(), run()
	if a.Results[0].Estimate != b.Results[0].Estimate {
		t.Fatalf("same seed, different estimates: %g vs %g",
			float64(a.Results[0].Estimate), float64(b.Results[0].Estimate))
	}
	if a.Samples != b.Samples || a.Queries != b.Queries {
		t.Fatalf("same seed, different cost: %d/%d vs %d/%d samples/queries",
			a.Samples, a.Queries, b.Samples, b.Queries)
	}
}

func TestJobCancelYieldsPartialResults(t *testing.T) {
	// Unlimited service: without a cancel the job would run for a very
	// long time (maxSamples is huge).
	m := NewManager(testBackend(t, 0), ManagerOptions{})
	j, err := m.Create(Spec{
		Method:     MethodLR,
		Seed:       1,
		Aggregates: []core.AggSpec{core.CountSpec()},
		Options:    RunOptions{MaxSamples: 10_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until at least one sample completed, then cancel.
	deadline := time.Now().Add(20 * time.Second)
	for j.Snapshot().Samples == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no sample completed in 20s")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := m.Cancel(j.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	v := waitSettled(t, j)
	if v.State != StateCanceled {
		t.Fatalf("state %s, want canceled", v.State)
	}
	if len(v.Results) == 0 || v.Results[0].Samples == 0 {
		t.Fatalf("canceled job returned no partial results: %+v", v.Results)
	}
}

func TestJobScopedBudget(t *testing.T) {
	// Two sequential jobs over one unlimited service: each stops at its
	// own MaxQueries, counting only its own spend.
	svc := testBackend(t, 0)
	m := NewManager(svc, ManagerOptions{})
	for i := 0; i < 2; i++ {
		j, err := m.Create(Spec{
			Method:     MethodLR,
			Seed:       int64(i),
			Aggregates: []core.AggSpec{core.CountSpec()},
			Options:    RunOptions{MaxQueries: 150},
		})
		if err != nil {
			t.Fatal(err)
		}
		v := waitSettled(t, j)
		if v.State != StateDone {
			t.Fatalf("job %d: state %s (err %q)", i, v.State, v.Error)
		}
		if v.Queries == 0 || v.Queries > 150+150 {
			// One sample's worth of overshoot is legal; 2x is not.
			t.Fatalf("job %d spent %d queries against a 150 cap", i, v.Queries)
		}
	}
}

func TestFollowTraceReplaysAndFollows(t *testing.T) {
	m := NewManager(testBackend(t, 0), ManagerOptions{})
	j, err := m.Create(Spec{
		Method:     MethodLR,
		Seed:       5,
		Aggregates: []core.AggSpec{core.CountSpec()},
		Options:    RunOptions{MaxSamples: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var events []TraceEvent
	if err := j.FollowTrace(ctx, func(e TraceEvent) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 25 {
		t.Fatalf("got %d trace events, want 25 (one per sample, one aggregate)", len(events))
	}
	for i, e := range events {
		if e.Samples != i+1 {
			t.Fatalf("event %d has samples=%d, want %d (ordered replay)", i, e.Samples, i+1)
		}
	}
	// A second follower after settle replays the same stream.
	n := 0
	if err := j.FollowTrace(ctx, func(TraceEvent) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Fatalf("late follower saw %d events, want 25", n)
	}
}

func TestTraceWindowBounded(t *testing.T) {
	// Drive onPlanProgress directly far past the window: memory must
	// stay bounded and followers must resume at the earliest retained
	// event with absolute indexing intact.
	plan, err := core.PlanBatch([]core.AggSpec{core.CountSpec()}, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{
		qplan:     plan,
		state:     StateRunning,
		traceWake: make(chan struct{}),
	}
	total := maxTraceEvents + maxTraceEvents/2 + 123
	for i := 0; i < total; i++ {
		j.onPlanProgress(core.PlanProgress{
			Points:  []core.TracePoint{{Samples: i + 1, Queries: int64(i), Estimate: 1}},
			Partial: []core.Result{{Name: "COUNT(*)", Estimate: 1, Samples: i + 1}},
			Samples: i + 1,
			Queries: int64(i),
		})
	}
	j.mu.Lock()
	j.state = StateDone
	retained := len(j.trace)
	j.mu.Unlock()
	if retained > maxTraceEvents {
		t.Fatalf("window holds %d events, cap is %d", retained, maxTraceEvents)
	}
	var got []TraceEvent
	if err := j.FollowTrace(context.Background(), func(e TraceEvent) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != retained {
		t.Fatalf("follower saw %d events, window holds %d", len(got), retained)
	}
	if got[len(got)-1].Samples != total {
		t.Fatalf("last event samples=%d, want %d", got[len(got)-1].Samples, total)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Samples != got[i-1].Samples+1 {
			t.Fatalf("gap inside the retained window at %d", i)
		}
	}
}

func TestManagerValidation(t *testing.T) {
	m := NewManager(testBackend(t, 100), ManagerOptions{})
	cases := []Spec{
		{Method: "magic", Aggregates: []core.AggSpec{core.CountSpec()}},
		{Method: "nno", Aggregates: []core.AggSpec{core.CountSpec()}}, // the NNO baseline is not a job method
		{Method: MethodLR},
		{Method: MethodLR, Aggregates: []core.AggSpec{{Kind: "median"}}},
		{Method: MethodLR, Aggregates: []core.AggSpec{core.CountSpec()}, Options: RunOptions{Parallelism: 1000}},
		{Method: MethodLR, Aggregates: []core.AggSpec{core.CountSpec()}, Options: RunOptions{MaxSamples: -1}},
		{Method: MethodLR, Aggregates: []core.AggSpec{core.CountSpec().WithWhere(core.PredSpec{Op: "and"})}},
	}
	for i, spec := range cases {
		if _, err := m.Create(spec); err == nil {
			t.Errorf("case %d: expected a validation error", i)
		}
	}
}

func TestManagerTableFull(t *testing.T) {
	m := NewManager(testBackend(t, 0), ManagerOptions{MaxJobs: 1})
	running, err := m.Create(Spec{
		Method:     MethodLR,
		Seed:       1,
		Aggregates: []core.AggSpec{core.CountSpec()},
		Options:    RunOptions{MaxSamples: 10_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(Spec{
		Method: MethodLR, Seed: 2, Aggregates: []core.AggSpec{core.CountSpec()},
	}); !errors.Is(err, ErrTableFull) {
		t.Fatalf("second create over a full table of running jobs: %v, want ErrTableFull", err)
	}
	// Once the running job settles, its slot is evictable.
	m.Cancel(running.ID)
	waitSettled(t, running)
	if _, err := m.Create(Spec{
		Method: MethodLR, Seed: 3, Aggregates: []core.AggSpec{core.CountSpec()},
		Options: RunOptions{MaxSamples: 1},
	}); err != nil {
		t.Fatalf("create after eviction became possible: %v", err)
	}
}

func TestJobAvgZeroCountNullOnWire(t *testing.T) {
	// An AVG whose selection matches nothing has an undefined ratio: the
	// job must finish done (not failed) and the wire view must carry
	// estimate, std_err and ci95 as JSON null — never NaN or a fake CI.
	m := NewManager(testBackend(t, 0), ManagerOptions{})
	j, err := m.Create(Spec{
		Method: MethodLR,
		Seed:   11,
		Aggregates: []core.AggSpec{
			core.AvgSpec("enrollment").WithWhere(core.AttrCmp("enrollment", "lt", -1)).WithLabel("avg_none"),
		},
		Options: RunOptions{MaxSamples: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitSettled(t, j)
	if v.State != StateDone {
		t.Fatalf("state %s (err %q), want done", v.State, v.Error)
	}
	if len(v.Results) != 1 || v.Results[0].Name != "avg_none" {
		t.Fatalf("results %+v, want one named avg_none", v.Results)
	}
	r := v.Results[0]
	if !math.IsNaN(float64(r.Estimate)) || !math.IsNaN(float64(r.StdErr)) || !math.IsNaN(float64(r.CI95)) {
		t.Fatalf("undefined AVG should be NaN across the board, got %+v", r)
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("view must marshal: %v", err)
	}
	for _, key := range []string{`"estimate":null`, `"std_err":null`, `"ci95":null`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("wire view missing %s: %s", key, data)
		}
	}
}

func TestJobViewCarriesPlan(t *testing.T) {
	// Planner-path jobs expose their compiled plan: fused physical
	// aggregates, deduped predicates, the stream's method and account.
	where := core.TagEq("type", "public")
	m := NewManager(testBackend(t, 0), ManagerOptions{})
	j, err := m.Create(Spec{
		Method: MethodAuto,
		Seed:   3,
		Aggregates: []core.AggSpec{
			core.CountSpec().WithWhere(where),
			core.SumSpec("enrollment").WithWhere(where),
			core.AvgSpec("enrollment").WithWhere(where),
		},
		Options: RunOptions{MaxSamples: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitSettled(t, j)
	if v.State != StateDone {
		t.Fatalf("state %s (err %q), want done", v.State, v.Error)
	}
	if v.Plan == nil {
		t.Fatal("planner-path job view has no plan")
	}
	if v.Plan.Preds != 1 {
		t.Fatalf("plan preds = %d, want 1 (one shared selection)", v.Plan.Preds)
	}
	if len(v.Plan.Groups) != 1 {
		t.Fatalf("plan groups = %d, want 1", len(v.Plan.Groups))
	}
	g := v.Plan.Groups[0]
	if g.Method != MethodLR {
		t.Fatalf("auto over a location-returned backend picked %q, want lr", g.Method)
	}
	if g.Seed != 3 {
		t.Fatalf("plan seed = %d, want the spec seed 3", g.Seed)
	}
	// COUNT, SUM and AVG over one selection fuse to 2 physicals.
	if len(g.Aggs) != 2 {
		t.Fatalf("fused aggs %v, want 2 (shared SUM and COUNT)", g.Aggs)
	}
	if len(g.Specs) != 3 || g.Samples != 8 || g.Queries == 0 || !sameSamples(v, 8) {
		t.Fatalf("group account off: %+v (view samples %d)", g, v.Samples)
	}
	// Parallel jobs run through the same planner and carry its plan.
	jp, err := m.Create(Spec{
		Method:     MethodLR,
		Seed:       3,
		Aggregates: []core.AggSpec{core.CountSpec()},
		Options:    RunOptions{MaxSamples: 8, Parallelism: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	vp := waitSettled(t, jp)
	if vp.State != StateDone || vp.Plan == nil || len(vp.Plan.Groups) != 1 {
		t.Fatalf("parallel job: state %s (err %q), plan %+v; want done with one group", vp.State, vp.Error, vp.Plan)
	}
	if g := vp.Plan.Groups[0]; g.Samples != 8 || !sameSamples(vp, 8) {
		t.Fatalf("parallel group account off: %+v (view samples %d)", g, vp.Samples)
	}
}

func TestJobMaxSamplesOneStream(t *testing.T) {
	// A forced-LNR job mixing a location-free and a location-reading
	// selection plans one localizing stream: MaxSamples caps the job,
	// and every result reads all of its 8 samples.
	svc := testBackend(t, 0)
	m := NewManager(svc, ManagerOptions{})
	j, err := m.Create(Spec{
		Method: MethodLNR,
		Seed:   4,
		Aggregates: []core.AggSpec{
			core.CountSpec(),
			core.CountSpec().WithWhere(core.InRect(svc.Bounds())).WithLabel("inside"),
		},
		Options: RunOptions{MaxSamples: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitSettled(t, j)
	if v.State != StateDone {
		t.Fatalf("state %s (err %q), want done", v.State, v.Error)
	}
	if v.Plan == nil || len(v.Plan.Groups) != 1 {
		t.Fatalf("plan %+v, want one sample stream", v.Plan)
	}
	if g := v.Plan.Groups[0]; g.Method != MethodLNR || !g.NeedsLocation || g.Samples != 8 || len(g.Specs) != 2 {
		t.Errorf("stream %+v, want lnr, localizing, 8 samples for both specs", g)
	}
	for _, r := range v.Results {
		if r.Samples != 8 {
			t.Errorf("result %s reports %d samples, want 8", r.Name, r.Samples)
		}
	}
	if v.Samples != 8 {
		t.Fatalf("view samples = %d, want 8", v.Samples)
	}
}

func TestStoredViewDecodesRemovedPlanFields(t *testing.T) {
	// A view persisted when plans carried a re-plan count and a modeled
	// per-sample cost still loads: the decoder ignores the two fields.
	var sj StoredJob
	data := `{"id":"job-1","spec":{"method":"lnr","seed":4,"aggregates":[{"kind":"count"}],"options":{}},
		"view":{"id":"job-1","state":"done","method":"lnr","seed":4,"samples":8,"queries":900,
		"plan":{"preds":0,"replans":3,"groups":[{"method":"lnr","seed":4,"specs":[0],"aggs":["COUNT(*)"],
		"preds":0,"cost_per_sample":24,"samples":8,"queries":900}]}}}`
	if err := json.Unmarshal([]byte(data), &sj); err != nil {
		t.Fatal(err)
	}
	if p := sj.View.Plan; p == nil || len(p.Groups) != 1 || p.Groups[0].Samples != 8 || sj.View.Samples != 8 {
		t.Fatalf("stored view decoded as %+v", sj.View)
	}
}

func sameSamples(v View, want int) bool { return v.Samples == want }

func TestJSONFloatNaN(t *testing.T) {
	v := View{Results: []ResultView{{Name: "AVG(x)", Estimate: JSONFloat(math.NaN())}}}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("view with NaN estimate must marshal: %v", err)
	}
	if !strings.Contains(string(data), `"estimate":null`) {
		t.Fatalf("NaN should encode as null: %s", data)
	}
	var back ResultView
	if err := json.Unmarshal([]byte(`{"name":"a","estimate":null}`), &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(back.Estimate)) {
		t.Fatalf("null should decode to NaN, got %g", float64(back.Estimate))
	}
}
