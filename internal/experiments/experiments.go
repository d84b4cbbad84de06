// Package experiments reproduces every table and figure of the
// paper's evaluation (§6) over the simulated services. Each Fig* /
// Table* function returns a printable result whose series mirror the
// rows/curves the paper plots; cmd/lbsbench prints them and the
// benchmark suite exercises them at reduced scale.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/stack"
	"repro/internal/workload"
)

// Config scales an experiment. The paper's settings (25 runs,
// thousands of POIs, 5–25k query budgets) are the Paper() defaults;
// Quick() shrinks everything for benchmarks and CI.
type Config struct {
	// N is the dataset size (interpretation varies per scenario).
	N int
	// Runs is the number of independent repetitions averaged per data
	// point (the paper uses 25).
	Runs int
	// Budget is the per-run query budget.
	Budget int64
	// K is the service's top-k.
	K int
	// Seed is the base seed; run r uses Seed + r.
	Seed int64
	// Shards, when > 1, runs the estimators against a federated
	// service of this many in-process spatial shards (stack.Spec's
	// -shards) instead of a single Service. Federated answers are
	// bit-identical to the single-service ones, so every figure
	// reproduces unchanged (TestFiguresFederatedIdentical) — the knob
	// exists to exercise and measure the scale-out path under the full
	// evaluation workload (lbsbench -shards).
	Shards int
}

// Paper returns the full-scale configuration.
func Paper() Config { return Config{N: 2000, Runs: 25, Budget: 25000, K: 5, Seed: 1} }

// Quick returns a reduced configuration for benchmarks and smoke
// tests.
func Quick() Config { return Config{N: 300, Runs: 3, Budget: 4000, K: 5, Seed: 1} }

// Series is one labelled curve: Y[i] measured at X[i].
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced table or figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Write renders the figure as an aligned text table, one X column and
// one column per series — the same rows the paper plots.
func (f *Figure) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	if len(f.Series) == 0 {
		return nil
	}
	fmt.Fprintf(w, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%18s", s.Name)
	}
	fmt.Fprintln(w)
	// All series are generated on a shared X grid.
	base := f.Series[0]
	for i := range base.X {
		fmt.Fprintf(w, "%-14.4g", base.X[i])
		for _, s := range f.Series {
			if i < len(s.Y) && !math.IsNaN(s.Y[i]) {
				fmt.Fprintf(w, "%18.4g", s.Y[i])
			} else {
				fmt.Fprintf(w, "%18s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(x = %s, y = %s)\n\n", f.XLabel, f.YLabel)
	return nil
}

// traceSet is the per-run estimate traces of one algorithm.
type traceSet struct {
	name   string
	truth  float64
	traces [][]core.TracePoint
}

// estimateAt returns the running estimate of one trace at a query
// budget (the last trace point not exceeding q; NaN before the first
// sample).
func estimateAt(trace []core.TracePoint, q float64) float64 {
	est := math.NaN()
	for _, tp := range trace {
		if float64(tp.Queries) <= q {
			est = tp.Estimate
		} else {
			break
		}
	}
	return est
}

// meanEstimateSeries averages the running estimates of all runs on a
// query grid (Figure 12 style).
func (ts *traceSet) meanEstimateSeries(grid []float64) Series {
	y := make([]float64, len(grid))
	for i, q := range grid {
		var sum float64
		n := 0
		for _, tr := range ts.traces {
			if e := estimateAt(tr, q); !math.IsNaN(e) {
				sum += e
				n++
			}
		}
		if n > 0 {
			y[i] = sum / float64(n)
		} else {
			y[i] = math.NaN()
		}
	}
	return Series{Name: ts.name, X: grid, Y: y}
}

// costToReach returns, per run, the smallest query count after which
// the running estimate's relative error stays at or below target until
// the end of the trace; runs that never converge report their final
// query count (censored).
func (ts *traceSet) costToReach(target float64) []float64 {
	out := make([]float64, 0, len(ts.traces))
	for _, tr := range ts.traces {
		if len(tr) == 0 {
			continue
		}
		cost := float64(tr[len(tr)-1].Queries) // censored default
		for i := len(tr) - 1; i >= 0; i-- {
			rel := math.Abs(tr[i].Estimate-ts.truth) / math.Abs(ts.truth)
			if rel > target {
				break
			}
			cost = float64(tr[i].Queries)
		}
		out = append(out, cost)
	}
	return out
}

// costSeries builds the query-cost-versus-relative-error curve
// (Figures 13–17, 20) on the given error grid.
func (ts *traceSet) costSeries(errGrid []float64) Series {
	y := make([]float64, len(errGrid))
	for i, e := range errGrid {
		costs := ts.costToReach(e)
		if len(costs) == 0 {
			y[i] = math.NaN()
			continue
		}
		var sum float64
		for _, c := range costs {
			sum += c
		}
		y[i] = sum / float64(len(costs))
	}
	return Series{Name: ts.name, X: errGrid, Y: y}
}

// meanCostToReach averages costToReach over runs (Figures 18, 19).
func (ts *traceSet) meanCostToReach(target float64) float64 {
	costs := ts.costToReach(target)
	if len(costs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, c := range costs {
		sum += c
	}
	return sum / float64(len(costs))
}

// defaultErrGrid is the paper's x-axis for cost-vs-error plots.
func defaultErrGrid() []float64 {
	return []float64{0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05}
}

// queryGrid builds an evenly spaced query-budget grid.
func queryGrid(budget int64, points int) []float64 {
	out := make([]float64, points)
	for i := range out {
		out[i] = float64(budget) * float64(i+1) / float64(points)
	}
	return out
}

// AlgoKind selects one of the three evaluated algorithms.
type AlgoKind int

const (
	AlgoLR AlgoKind = iota
	AlgoLNR
	AlgoNNO
)

// AlgoSpec describes one algorithm variant to evaluate.
type AlgoSpec struct {
	Name     string
	Kind     AlgoKind
	Weighted bool // use the scenario's density grid as sampler (§5.2)
	LR       core.LROptions
	LNR      core.LNROptions
	NNO      core.NNOOptions
	Filter   lbs.Filter
}

// lrSpec returns the full LR-LBS-AGG spec.
func lrSpec() AlgoSpec {
	return AlgoSpec{Name: "LR-LBS-AGG", Kind: AlgoLR, LR: paperLROptions(0)}
}

// paperLROptions returns the paper's full LR-LBS-AGG configuration: the
// library default with the adaptive choice of h (§3.2.3) in place of
// its fixed h = 1.
func paperLROptions(seed int64) core.LROptions {
	o := core.DefaultLROptions(seed)
	o.FixedH = 0
	return o
}

// lnrSpec returns the LNR-LBS-AGG spec.
func lnrSpec() AlgoSpec {
	return AlgoSpec{Name: "LNR-LBS-AGG", Kind: AlgoLNR}
}

// nnoSpec returns the LR-LBS-NNO baseline spec.
func nnoSpec() AlgoSpec {
	return AlgoSpec{Name: "LR-LBS-NNO", Kind: AlgoNNO}
}

// runTraces runs an algorithm spec Runs times, each against a freshly
// built service so its budget and counters start at zero, and collects
// the estimate traces for one aggregate.
func runTraces(ctx context.Context, cfg Config, sc *workload.Scenario, spec AlgoSpec,
	agg core.AggSpec, truth float64) (*traceSet, error) {

	ts := &traceSet{name: spec.Name, truth: truth}
	for r := 0; r < cfg.Runs; r++ {
		seed := cfg.Seed + int64(r)*7919
		st, err := stack.Spec{K: cfg.K, Shards: cfg.Shards}.Build(ctx, sc.DB)
		if err != nil {
			return nil, err
		}
		res, err := runOne(ctx, st.Querier, sc, spec, []core.AggSpec{agg}, geom.Rect{}, seed, cfg.Budget)
		if err != nil {
			return nil, fmt.Errorf("%s run %d: %w", spec.Name, r, err)
		}
		ts.traces = append(ts.traces, res[0].Trace)
	}
	return ts, nil
}

// runOne executes a single run of an algorithm spec over the
// aggregates and returns one result per aggregate. A non-zero region
// restricts the estimation region; the zero Rect means none.
func runOne(ctx context.Context, svc core.Oracle, sc *workload.Scenario, spec AlgoSpec,
	aggs []core.AggSpec, region geom.Rect, seed, budget int64) ([]core.Result, error) {

	compiled := make([]core.Aggregate, len(aggs))
	for i := range aggs {
		a, err := aggs[i].Compile()
		if err != nil {
			return nil, err
		}
		compiled[i] = a
	}
	runOpts := []core.RunOption{core.WithMaxQueries(budget)}
	var est core.Estimator
	switch spec.Kind {
	case AlgoLR:
		opts := spec.LR
		opts.Seed, opts.Filter, opts.Region = seed, spec.Filter, region
		if spec.Weighted {
			opts.Sampler = sc.Grid
		}
		est = core.NewLRAggregator(svc, opts)
	case AlgoLNR:
		opts := spec.LNR
		opts.Seed, opts.Filter, opts.Region = seed, spec.Filter, region
		if spec.Weighted {
			opts.Sampler = sc.Grid
		}
		est = core.NewLNRAggregator(svc, opts)
	case AlgoNNO:
		opts := spec.NNO
		// NNO has no region machinery in [10]; a region only restricts
		// where it samples.
		opts.Seed, opts.Filter, opts.Region = seed, spec.Filter, region
		if spec.Weighted {
			opts.Sampler = sc.Grid
		}
		est = core.NewNNOBaseline(svc, opts)
	default:
		return nil, fmt.Errorf("unknown algorithm kind %d", spec.Kind)
	}
	return core.Run(ctx, est, compiled, runOpts...)
}

// costVsErrorFigure runs a set of algorithm specs on one aggregate and
// produces the paper's cost-versus-error figure layout.
func costVsErrorFigure(ctx context.Context, cfg Config, sc *workload.Scenario,
	id, title string, specs []AlgoSpec, agg core.AggSpec, truth float64) (*Figure, error) {

	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "rel-error",
		YLabel: "query cost",
		Notes:  []string{fmt.Sprintf("ground truth = %.6g; runs = %d; budget = %d", truth, cfg.Runs, cfg.Budget)},
	}
	grid := defaultErrGrid()
	for _, spec := range specs {
		ts, err := runTraces(ctx, cfg, sc, spec, agg, truth)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, ts.costSeries(grid))
	}
	return fig, nil
}
