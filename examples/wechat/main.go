// WeChat: aggregate estimation over a rank-only interface (§4) — the
// service returns ordered user IDs with attributes but never any
// location or distance, exactly like the "people nearby" feature of
// WeChat or Sina Weibo.
//
// The program estimates the total number of users with the location
// feature enabled and the male/female ratio (the paper's Table-1
// social-network aggregates), using Algorithm LNR-LBS-AGG: Voronoi
// cells inferred purely from rank flips via binary search.
//
//	go run ./examples/wechat
package main

import (
	"context"
	"fmt"
	"log"

	lbsagg "repro"
)

func main() {
	// Synthetic China with 2,000 users, 67.1 % male, and WeChat-grade
	// location obfuscation on the service side.
	sc := lbsagg.WeChatChina(2000, 21)
	maleTruth := 0
	for i := 0; i < sc.DB.Len(); i++ {
		if sc.DB.Tuple(i).Tag("gender") == "m" {
			maleTruth++
		}
	}

	// k=10 nearest users per query, rank order only.
	svc := lbsagg.NewService(sc.DB, lbsagg.ServiceOptions{K: 10, Budget: 10000})

	agg := lbsagg.NewLNRAggregator(svc, lbsagg.LNROptions{
		Seed:    5,
		Sampler: sc.Grid, // population-weighted query locations
	})
	var aggs []lbsagg.Aggregate
	for _, spec := range []lbsagg.AggSpec{
		lbsagg.CountSpec(),
		lbsagg.CountSpec().WithWhere(lbsagg.TagEq("gender", "m")),
	} {
		a, err := spec.Compile()
		if err != nil {
			log.Fatal(err)
		}
		aggs = append(aggs, a)
	}
	res, err := agg.Run(context.Background(), aggs)
	if err != nil {
		log.Fatal(err)
	}
	total, males := res[0], res[1]
	ratio := lbsagg.RatioOf(males, total)

	fmt.Printf("rank-only interface, %d queries over %d samples\n",
		total.Queries, total.Samples)
	fmt.Printf("COUNT(users):  %.0f ± %.0f   (truth %d)\n",
		total.Estimate, total.CI95, sc.DB.Len())
	fmt.Printf("male fraction: %.1f%% ± %.1f%% (truth %.1f%%)\n",
		100*ratio.Estimate, 100*ratio.CI95,
		100*float64(maleTruth)/float64(sc.DB.Len()))
}
