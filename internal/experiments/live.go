package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// LiveChurn evaluates estimator robustness on a mutating database:
// LR-LBS-AGG estimating COUNT over a live database while a
// deterministic churn stream (inserts, deletes and moves) applies
// mid-run, interleaved at a fixed rate of ops per completed sample
// through the run driver's progress hook. The paper's estimators
// assume a static hidden database; this experiment measures how much
// a drifting population actually costs them — at 0 churn the live
// path must reproduce the static figure exactly (the bit-identical
// contract), and under churn the estimate is compared against the
// time-averaged population size over the run.
func LiveChurn(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.USASchools(cfg.N, cfg.Seed)
	svcOpts := lbs.Options{K: cfg.K}

	// Churn rates in mutations per completed sample.
	rates := []float64{0, 0.01, 0.1, 1}

	fig := &Figure{
		ID:     "live",
		Title:  "Estimation under churn: COUNT(schools) on a live database",
		XLabel: "ops/sample",
		YLabel: "mean |rel. error| vs time-averaged count",
		Notes: []string{
			fmt.Sprintf("initial population = %d; error of run r measured against the mean of Len() sampled after every estimator sample of run r", sc.DB.Len()),
		},
	}

	countAll := core.CountSpec()
	count, err := countAll.Compile()
	if err != nil {
		return nil, err
	}
	series := Series{Name: "LR-LBS-AGG"}
	driftSeries := Series{Name: "population drift %"}
	for _, rate := range rates {
		var errSum, driftSum float64
		for r := 0; r < cfg.Runs; r++ {
			seed := cfg.Seed + int64(r)*7919
			d, err := live.New(sc.DB, svcOpts, live.Options{})
			if err != nil {
				return nil, err
			}
			// Enough ops for the whole run at this rate; sized from the
			// budget (samples never exceed queries).
			var ops []live.Op
			if rate > 0 {
				ops = churn.Ops(sc.DB, churn.Config{Seed: seed}, int(math.Ceil(rate*float64(cfg.Budget)))+1)
			}
			applied := 0
			popSum, popN := 0.0, 0
			progress := func(points []core.TracePoint) {
				if len(points) == 0 {
					return
				}
				want := int(rate * float64(points[0].Samples))
				for applied < want && applied < len(ops) {
					if res := d.Apply(ctx, ops[applied:applied+1])[0]; res.Err != nil {
						// Churn streams are constructed to apply cleanly in
						// order; a rejection means the stream and database
						// diverged.
						panic(fmt.Sprintf("live churn op %d rejected: %v", applied, res.Err))
					}
					applied++
				}
				popSum += float64(d.Len())
				popN++
			}
			res, err := core.NewLRAggregator(d, paperLROptions(seed)).Run(ctx, []core.Aggregate{count},
				core.WithMaxQueries(cfg.Budget), core.WithProgress(progress))
			if err != nil {
				return nil, fmt.Errorf("live churn rate %g run %d: %w", rate, r, err)
			}
			truth := float64(sc.DB.Len())
			if popN > 0 {
				truth = popSum / float64(popN)
			}
			errSum += math.Abs(res[0].Estimate-truth) / truth
			driftSum += 100 * math.Abs(truth-float64(sc.DB.Len())) / float64(sc.DB.Len())
		}
		series.X = append(series.X, rate)
		series.Y = append(series.Y, errSum/float64(cfg.Runs))
		driftSeries.X = append(driftSeries.X, rate)
		driftSeries.Y = append(driftSeries.Y, driftSum/float64(cfg.Runs))
	}
	fig.Series = append(fig.Series, series, driftSeries)
	return fig, nil
}
