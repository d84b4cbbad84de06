// Starbucks: the paper's flagship demonstration (Table 1) — estimate
// how many Starbucks stores exist in the US by querying a Google-
// Places-like interface that answers "the k nearest POIs matching a
// filter", and compare against the chain's published store count.
//
// The example exercises three features of the library together:
//
//   - server-side selection pass-through (§5.1): the NAME='Starbucks'
//     condition rides along with every kNN query;
//
//   - weighted query sampling from external knowledge (§5.2): query
//     locations follow a census-like population-density grid, which
//     drastically reduces variance on urban-concentrated chains;
//
//   - the full LR-LBS-AGG estimator with all error-reduction devices.
//
//     go run ./examples/starbucks
package main

import (
	"context"
	"fmt"
	"log"

	lbsagg "repro"
)

func main() {
	// Synthetic continental US with 1,200 Starbucks among 4,800 other
	// POIs (scaled-down stand-in for the paper's 12,023 / millions).
	sc := lbsagg.StarbucksUS(1200, 4800, 11)
	truth := 0
	for i := 0; i < sc.DB.Len(); i++ {
		if sc.DB.Tuple(i).Name == "Starbucks" {
			truth++
		}
	}

	svc := lbsagg.NewService(sc.DB, lbsagg.ServiceOptions{
		K:      20,
		Budget: 5000, // the paper's Table-1 budget
	})

	opts := lbsagg.DefaultLROptions(99)
	opts.Filter = lbsagg.NameFilter("Starbucks") // pass-through selection
	opts.Sampler = sc.Grid                       // census-weighted sampling
	agg := lbsagg.NewLRAggregator(svc, opts)

	countAll := lbsagg.CountSpec()
	count, err := countAll.Compile()
	if err != nil {
		log.Fatal(err)
	}
	// Samples are i.i.d., so WithParallelism fans the drawing out over
	// independent estimator forks — against a real (latency-bound) API
	// this is a near-linear wall-clock win.
	res, err := agg.Run(context.Background(),
		[]lbsagg.Aggregate{count}, lbsagg.WithParallelism(4))
	if err != nil {
		log.Fatal(err)
	}
	r := res[0]
	fmt.Printf("COUNT(Starbucks in US)\n")
	fmt.Printf("  estimate:    %.0f ± %.0f (95%% CI)\n", r.Estimate, r.CI95)
	fmt.Printf("  ground truth: %d  (rel error %.1f%%)\n", truth, 100*r.RelErr(float64(truth)))
	fmt.Printf("  queries:     %d over %d samples\n", r.Queries, r.Samples)

	// The same samples also answer a post-processed condition for free:
	// highly rated stores (rating ≥ 4.0).
	opts2 := lbsagg.DefaultLROptions(100)
	opts2.Filter = lbsagg.NameFilter("Starbucks")
	opts2.Sampler = sc.Grid
	agg2 := lbsagg.NewLRAggregator(lbsagg.NewService(sc.DB, lbsagg.ServiceOptions{K: 20, Budget: 5000}), opts2)
	highlyRated := lbsagg.CountSpec().WithWhere(lbsagg.AttrCmp("rating", lbsagg.CmpGE, 4))
	rated, err := highlyRated.Compile()
	if err != nil {
		log.Fatal(err)
	}
	res2, err := agg2.Run(context.Background(), []lbsagg.Aggregate{rated})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("COUNT(Starbucks with rating ≥ 4): %.0f ± %.0f\n",
		res2[0].Estimate, res2[0].CI95)
}
