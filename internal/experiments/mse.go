package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MSERow is one row of the estimator-quality table: the bias–variance
// decomposition of §2.3 measured over repeated runs at a fixed budget.
type MSERow struct {
	Algorithm string
	Eval      stats.Evaluation
}

// MSEDecomposition runs the three algorithms cfg.Runs times each on
// COUNT(schools) at the configured budget and decomposes their error
// into bias² + variance, with confidence-interval coverage — the
// quantitative substantiation of the paper's unbiasedness claims
// (LR-LBS-AGG unbiased; LNR-LBS-AGG bias bounded; NNO visibly biased).
func MSEDecomposition(ctx context.Context, cfg Config) ([]MSERow, error) {
	sc := workload.USASchools(cfg.N, cfg.Seed)
	truth := float64(sc.DB.Len())
	specs := []AlgoSpec{lrSpec(), lnrSpec(), nnoSpec()}
	rows := make([]MSERow, 0, len(specs))
	for _, spec := range specs {
		outcomes := make([]stats.RunOutcome, 0, cfg.Runs)
		for r := 0; r < cfg.Runs; r++ {
			seed := cfg.Seed + int64(r)*7919
			st, err := stack.Spec{K: cfg.K, Shards: cfg.Shards}.Build(ctx, sc.DB)
			if err != nil {
				return nil, err
			}
			res, err := runOne(ctx, st.Querier, sc, spec, []core.AggSpec{core.CountSpec()}, geom.Rect{}, seed, cfg.Budget)
			if err != nil {
				return nil, fmt.Errorf("%s run %d: %w", spec.Name, r, err)
			}
			outcomes = append(outcomes, stats.RunOutcome{
				Estimate: res[0].Estimate,
				CI95:     res[0].CI95,
				Queries:  res[0].Queries,
			})
		}
		rows = append(rows, MSERow{Algorithm: spec.Name, Eval: stats.Evaluate(truth, outcomes)})
	}
	return rows, nil
}

// WriteMSE renders the decomposition table.
func WriteMSE(w io.Writer, rows []MSERow) {
	fmt.Fprintf(w, "== mse: bias/variance decomposition, COUNT(schools) ==\n")
	fmt.Fprintf(w, "%-14s %10s %9s %10s %9s %9s %12s\n",
		"algorithm", "mean", "bias%", "rmse%", "|z|bias", "coverage", "queries/run")
	for _, r := range rows {
		e := r.Eval
		fmt.Fprintf(w, "%-14s %10.4g %+8.2f%% %9.2f%% %9.2f %9.2f %12.0f\n",
			r.Algorithm, e.Mean, 100*e.BiasRel, 100*e.RMSERel,
			abs(e.BiasSignificance()), e.Coverage, e.MeanQueries)
	}
	fmt.Fprintln(w, "# truth-covered-by-CI target ≈ 0.95; |z|bias > 3 indicates real bias")
	fmt.Fprintln(w)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
