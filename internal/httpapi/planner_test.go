package httpapi

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// eqOrBothNaN compares wire floats bitwise, treating NaN (null on the
// wire) as equal to NaN.
func eqOrBothNaN(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestEstimateBatchMatchesInProcessPlan is the batch acceptance pin: a
// multi-aggregate spec submitted over POST /v1/estimate returns, for
// the same seed, exactly the per-aggregate estimates of the in-process
// planner (core.PlanBatch + Execute) — for LR and LNR, over a single
// service and a 4-shard federated router.
func TestEstimateBatchMatchesInProcessPlan(t *testing.T) {
	public := core.TagEq("type", "public")
	specs := []core.AggSpec{
		core.CountSpec().WithWhere(public),
		core.SumSpec("enrollment").WithWhere(public),
		core.AvgSpec("enrollment").WithWhere(public).WithLabel("avg_public"),
		// Same selection as the next spec modulo and-reordering: the
		// planner must fuse both onto one physical aggregate.
		core.CountSpec().
			WithWhere(core.And(core.AttrCmp("enrollment", "ge", 100), public)).
			WithLabel("count_big"),
		core.CountSpec().
			WithWhere(core.And(public, core.AttrCmp("enrollment", "ge", 100))).
			WithLabel("count_big2"),
	}
	newBackend := func(t *testing.T, shards int) lbs.Querier {
		t.Helper()
		db := workload.USASchools(200, 7).DB
		if shards == 1 {
			return lbs.NewService(db, lbs.Options{K: 5})
		}
		router, err := shard.FromPartsWrapped(shard.Partition(db, shards), lbs.Options{K: 5}, shard.DefaultResilience(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return router
	}
	for _, method := range []string{jobs.MethodLR, jobs.MethodLNR} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", method, shards), func(t *testing.T) {
				ctx := context.Background()
				opts := jobs.RunOptions{MaxSamples: 20}

				// In-process reference over its own identical backend.
				plan, err := core.PlanBatch(specs, core.PlanOptions{
					Method:     method,
					Seed:       99,
					MaxSamples: opts.MaxSamples,
				})
				if err != nil {
					t.Fatal(err)
				}
				want, err := plan.Execute(ctx, newBackend(t, shards).(core.Oracle), nil)
				if err != nil {
					t.Fatal(err)
				}

				// The same batch, submitted as a server-side job.
				srv := httptest.NewServer(NewServer(newBackend(t, shards)))
				defer srv.Close()
				c := newJobsClient(t, srv)
				v, err := c.Estimate(ctx, jobs.Spec{
					Method: method, Seed: 99, Aggregates: specs, Options: opts,
				})
				if err != nil {
					t.Fatal(err)
				}
				final, err := c.WaitJob(ctx, v.ID, 10*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				if final.State != jobs.StateDone {
					t.Fatalf("job state %s (err %q), want done", final.State, final.Error)
				}
				if len(final.Results) != len(want.Results) {
					t.Fatalf("got %d results, want %d", len(final.Results), len(want.Results))
				}
				for i, r := range final.Results {
					w := want.Results[i]
					if r.Name != w.Name {
						t.Errorf("result %d named %q, want %q", i, r.Name, w.Name)
					}
					if !eqOrBothNaN(float64(r.Estimate), w.Estimate) ||
						!eqOrBothNaN(float64(r.StdErr), w.StdErr) ||
						!eqOrBothNaN(float64(r.CI95), w.CI95) {
						t.Errorf("%s: remote %v±%v != in-process %v±%v",
							r.Name, float64(r.Estimate), float64(r.StdErr), w.Estimate, w.StdErr)
					}
					if r.Samples != w.Samples || r.Queries != w.Queries {
						t.Errorf("%s: remote cost %d/%d != in-process %d/%d samples/queries",
							r.Name, r.Samples, r.Queries, w.Samples, w.Queries)
					}
				}
				if final.Plan == nil {
					t.Fatal("batch job view carries no plan")
				}
				if len(final.Plan.Groups) != 1 {
					t.Fatalf("plan streams %d, want 1", len(final.Plan.Groups))
				}
				g := final.Plan.Groups[0]
				if g.Method != plan.Method || g.Seed != plan.Seed ||
					g.Samples != want.Samples || g.Queries != want.Queries {
					t.Errorf("stream: remote %+v != in-process %s seed=%d %d samples/%d queries",
						g, plan.Method, plan.Seed, want.Samples, want.Queries)
				}
				// 5 specs collapse to 3 physicals: the AVG rides the same
				// COUNT+SUM as specs 0-1, and the two and-reordered COUNTs
				// fuse onto one conjunction aggregate; 2 distinct predicates.
				if len(g.Aggs) != 3 || final.Plan.Preds != 2 {
					t.Errorf("fusion off: %d physicals / %d preds, want 3 / 2 (aggs %v)",
						len(g.Aggs), final.Plan.Preds, g.Aggs)
				}
			})
		}
	}
}
