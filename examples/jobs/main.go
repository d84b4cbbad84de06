// Estimation as a service: run the paper's algorithms through the job
// API instead of in-process closures.
//
// The program serves a simulated LBS over HTTP, then acts as a remote
// client: it submits a declarative estimation job (JSON specs — no Go
// closures cross the wire), streams the live estimate-versus-cost
// trace, waits for the result, demonstrates canceling a long job
// mid-run to collect its partial results, and closes with batched
// analytics — a whole dashboard of related aggregates in one job,
// planned server-side into shared sample streams with fused operators.
//
//	go run ./examples/jobs
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"time"

	lbsagg "repro"
)

func main() {
	// A 100×100 km city with 800 points of interest, some open Sunday.
	bounds := lbsagg.NewRect(lbsagg.Pt(0, 0), lbsagg.Pt(100, 100))
	rng := rand.New(rand.NewSource(7))
	tuples := make([]lbsagg.Tuple, 800)
	for i := range tuples {
		open := "no"
		if rng.Intn(3) > 0 {
			open = "yes"
		}
		tuples[i] = lbsagg.Tuple{
			ID:    int64(i + 1),
			Loc:   lbsagg.Pt(rng.Float64()*100, rng.Float64()*100),
			Attrs: map[string]float64{"rating": 1 + rng.Float64()*4},
			Tags:  map[string]string{"open_sunday": open},
		}
	}
	db := lbsagg.NewDatabase(bounds, tuples)
	// No service-wide budget: each job bounds its own spend
	// (MaxQueries), and the cancel demo below needs a job that would
	// otherwise keep running.
	svc := lbsagg.NewService(db, lbsagg.ServiceOptions{K: 10})

	// Serve the estimation service over real HTTP.
	server := lbsagg.NewHTTPServer(svc)
	ts := httptest.NewServer(server)
	defer ts.Close()

	ctx := context.Background()
	client, err := lbsagg.NewHTTPClient(ctx, ts.URL, lbsagg.HTTPSelection{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Submit a declarative job: COUNT(*), and AVG(rating) over the
	// Sunday-open subset — the whole request is plain JSON.
	view, err := client.Estimate(ctx, lbsagg.JobSpec{
		Method: lbsagg.JobMethodLR,
		Seed:   42,
		Aggregates: []lbsagg.AggSpec{
			lbsagg.CountSpec(),
			lbsagg.AvgSpec("rating").WithWhere(lbsagg.TagEq("open_sunday", "yes")),
		},
		Options: lbsagg.JobRunOptions{MaxQueries: 4000},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s\n", view.ID)

	// Stream the trace while the job runs server-side (every 40th
	// event, to keep the output readable).
	n := 0
	err = client.FollowJobTrace(ctx, view.ID, func(e lbsagg.JobTraceEvent) error {
		if n++; n%40 == 0 {
			fmt.Printf("  trace: %-32s samples=%-4d queries=%-5d estimate=%.1f\n",
				e.Agg, e.Samples, e.Queries, float64(e.Estimate))
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	final, err := client.WaitJob(ctx, view.ID, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s after %d samples, %d queries\n", final.ID, final.State, final.Samples, final.Queries)
	for _, r := range final.Results {
		fmt.Printf("  %-40s %.2f ± %.2f (95%% CI)\n", r.Name, float64(r.Estimate), float64(r.CI95))
	}
	truth := db.Count(func(t *lbsagg.Tuple) bool { return true })
	fmt.Printf("  (true COUNT(*) = %d)\n", truth)

	// A second, unbounded job: cancel it mid-run and keep the partial
	// estimates of the samples that completed.
	long, err := client.Estimate(ctx, lbsagg.JobSpec{
		Method:     lbsagg.JobMethodLR,
		Seed:       1,
		Aggregates: []lbsagg.AggSpec{lbsagg.CountSpec()},
		Options:    lbsagg.JobRunOptions{MaxSamples: 10_000_000},
	})
	if err != nil {
		log.Fatal(err)
	}
	for {
		cur, err := client.Job(ctx, long.ID)
		if err != nil {
			log.Fatal(err)
		}
		if cur.Samples >= 20 || cur.State.Finished() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	partial, err := client.CancelJob(ctx, long.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s with partial results after %d samples: COUNT(*) ≈ %.1f\n",
		partial.ID, partial.State, partial.Samples, float64(partial.Results[0].Estimate))

	// Batched analytics: a dashboard of related aggregates in one job.
	// The server routes the batch through the multi-aggregate query
	// planner — the three Sunday aggregates share one selection (its
	// predicate compiles once, the AVG rides the same fused SUM/COUNT
	// physicals), and all specs share one sample stream — so the whole
	// dashboard costs a fraction of one job per aggregate.
	open := lbsagg.TagEq("open_sunday", "yes")
	batch, err := client.Estimate(ctx, lbsagg.JobSpec{
		Method: lbsagg.JobMethodAuto, // auto runs LR over this backend
		Seed:   7,
		Aggregates: []lbsagg.AggSpec{
			lbsagg.CountSpec().WithWhere(open).WithLabel("sunday_count"),
			lbsagg.SumSpec("rating").WithWhere(open).WithLabel("sunday_rating_sum"),
			lbsagg.AvgSpec("rating").WithWhere(open).WithLabel("sunday_rating_avg"),
			lbsagg.CountSpec().
				WithWhere(lbsagg.And(open, lbsagg.AttrCmp("rating", "ge", 4))).
				WithLabel("sunday_top_rated"),
		},
		Options: lbsagg.JobRunOptions{MaxQueries: 4000},
	})
	if err != nil {
		log.Fatal(err)
	}
	bf, err := client.WaitJob(ctx, batch.ID, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s after %d samples, %d queries for %d aggregates\n",
		bf.ID, bf.State, bf.Samples, bf.Queries, len(bf.Results))
	if p := bf.Plan; p != nil {
		g := p.Groups[0] // a plan is one sample stream
		fmt.Printf("  plan: %s seed=%d, %d distinct predicate(s), %d fused physicals for specs %v\n",
			g.Method, g.Seed, p.Preds, len(g.Aggs), g.Specs)
	}
	for _, r := range bf.Results {
		fmt.Printf("  %-40s %.2f ± %.2f (95%% CI)\n", r.Name, float64(r.Estimate), float64(r.CI95))
	}
}
