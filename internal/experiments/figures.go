package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/stack"
	"repro/internal/voronoi"
	"repro/internal/workload"
)

// Fig11 reproduces the quantitative content of Figure 11 — the Voronoi
// decomposition of Starbucks in the US — as cell-size distribution
// statistics demonstrating the urban/rural skew the paper highlights
// (cells below 1 km² in cities, hundreds of thousands of km² in rural
// areas). Use cmd/voronoisvg for the picture itself.
func Fig11(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.StarbucksUS(cfg.N, 0, cfg.Seed)
	d := voronoi.Compute(sc.DB, 1)
	st := d.CellStats()
	fig := &Figure{
		ID:     "fig11",
		Title:  "Voronoi decomposition of Starbucks in US (cell-size distribution)",
		XLabel: "statistic",
		YLabel: "km^2",
		Notes: []string{
			fmt.Sprintf("n = %d cells; Gini = %.3f; max/min = %.3g; coverage check = %.4f (want 1)",
				st.N, st.Gini, st.MaxOverMin, st.TotalOverBoundArea),
		},
	}
	fig.Series = append(fig.Series, Series{
		Name: "cell-area",
		X:    []float64{1, 2, 3, 4, 5, 6},
		Y:    []float64{st.Min, st.P50, st.Mean, st.P90, st.P99, st.Max},
	})
	fig.Notes = append(fig.Notes, "x axis: 1=min 2=median 3=mean 4=p90 5=p99 6=max")
	return fig, nil
}

// Fig12 reproduces Figure 12 — the estimate trace of COUNT(restaurants
// in US) versus query cost for LR-LBS-NNO, LR-LBS-AGG and LNR-LBS-AGG
// — demonstrating the convergence/unbiasedness behaviour: both AGG
// estimators settle on the truth quickly while NNO oscillates.
func Fig12(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.USARestaurants(cfg.N, cfg.Seed)
	truth := float64(sc.DB.Len())
	grid := queryGrid(cfg.Budget, 25)
	fig := &Figure{
		ID:     "fig12",
		Title:  "Unbiasedness of estimators: COUNT(restaurants) trace",
		XLabel: "query cost",
		YLabel: "running estimate",
		Notes:  []string{fmt.Sprintf("ground truth = %.0f", truth)},
	}
	for _, spec := range []AlgoSpec{nnoSpec(), lrSpec(), lnrSpec()} {
		ts, err := runTraces(ctx, cfg, sc, spec, core.CountSpec(), truth)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, ts.meanEstimateSeries(grid))
	}
	return fig, nil
}

// Fig13 reproduces Figure 13 — the impact of the sampling strategy:
// uniform versus census-weighted ("-US") variants of both AGG
// estimators on COUNT(schools in US).
func Fig13(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.USASchools(cfg.N, cfg.Seed)
	truth := float64(sc.DB.Len())
	lrUS := lrSpec()
	lrUS.Name = "LR-LBS-AGG-US"
	lrUS.Weighted = true
	lnrUS := lnrSpec()
	lnrUS.Name = "LNR-LBS-AGG-US"
	lnrUS.Weighted = true
	return costVsErrorFigure(ctx, cfg, sc,
		"fig13", "Impact of sampling strategy: COUNT(schools)",
		[]AlgoSpec{lrSpec(), lrUS, lnrSpec(), lnrUS}, core.CountSpec(), truth)
}

// Fig14 reproduces Figure 14 — query cost versus relative error for
// COUNT(schools in US) across the three algorithms.
func Fig14(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.USASchools(cfg.N, cfg.Seed)
	truth := float64(sc.DB.Len())
	return costVsErrorFigure(ctx, cfg, sc,
		"fig14", "COUNT(schools)",
		[]AlgoSpec{nnoSpec(), lrSpec(), lnrSpec()}, core.CountSpec(), truth)
}

// Fig15 reproduces Figure 15 — COUNT(restaurants in US).
func Fig15(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.USARestaurants(cfg.N, cfg.Seed)
	truth := float64(sc.DB.Len())
	return costVsErrorFigure(ctx, cfg, sc,
		"fig15", "COUNT(restaurants)",
		[]AlgoSpec{nnoSpec(), lrSpec(), lnrSpec()}, core.CountSpec(), truth)
}

// Fig16 reproduces Figure 16 — SUM(enrollment) over US schools.
func Fig16(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.USASchools(cfg.N, cfg.Seed)
	agg := core.SumSpec("enrollment")
	truth := sc.DB.GroundTruth(func(t *lbs.Tuple) float64 { return t.Attr("enrollment") }, nil)
	return costVsErrorFigure(ctx, cfg, sc,
		"fig16", "SUM(enrollment) in schools",
		[]AlgoSpec{nnoSpec(), lrSpec(), lnrSpec()}, agg, truth)
}

// Fig17 reproduces Figure 17 — AVG(rating) of restaurants in Austin,
// TX: a sub-region aggregate computed as SUM/COUNT with the
// estimation region restricted to the metro box. Because AVG is a
// ratio, the traces track the running SUM(rating)/COUNT ratio.
func Fig17(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.USARestaurants(cfg.N*4, cfg.Seed) // denser so the metro box is populated
	austin := workload.MetroBox(sc.DB, 120)          // the synthetic Austin, TX
	inBox := func(t *lbs.Tuple) bool { return austin.Contains(t.Loc) }
	truthCount := float64(sc.DB.Count(inBox))
	if truthCount == 0 {
		return nil, fmt.Errorf("fig17: no restaurants generated inside the Austin box")
	}
	truthSum := sc.DB.GroundTruth(func(t *lbs.Tuple) float64 {
		if inBox(t) {
			return t.Attr("rating")
		}
		return 0
	}, nil)
	truthAvg := truthSum / truthCount

	inAustin := core.InRect(austin)
	halves := []core.AggSpec{core.SumSpec("rating").WithWhere(inAustin), core.CountSpec().WithWhere(inAustin)}

	fig := &Figure{
		ID:     "fig17",
		Title:  "AVG(rating) of restaurants in Austin, TX",
		XLabel: "rel-error",
		YLabel: "query cost",
		Notes:  []string{fmt.Sprintf("ground truth AVG = %.4f over %d restaurants", truthAvg, int(truthCount))},
	}
	errGrid := defaultErrGrid()
	specs := []AlgoSpec{nnoSpec(), lrSpec(), lnrSpec()}
	for _, spec := range specs {
		ts := &traceSet{name: spec.Name, truth: truthAvg}
		for r := 0; r < cfg.Runs; r++ {
			seed := cfg.Seed + int64(r)*7919
			st, err := stack.Spec{K: cfg.K, Shards: cfg.Shards}.Build(ctx, sc.DB)
			if err != nil {
				return nil, err
			}
			res, err := runOne(ctx, st.Querier, sc, spec, halves, austin, seed, cfg.Budget)
			if err != nil {
				return nil, fmt.Errorf("%s run %d: %w", spec.Name, r, err)
			}
			ts.traces = append(ts.traces, core.RatioOf(res[0], res[1]).Trace)
		}
		fig.Series = append(fig.Series, ts.costSeries(errGrid))
	}
	return fig, nil
}

// Fig18 reproduces Figure 18 — query cost to reach relative error 0.1
// versus database size (25 % … 100 % subsamples of the schools set).
func Fig18(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.USASchools(cfg.N, cfg.Seed)
	fracs := []float64{0.25, 0.5, 0.75, 1.0}
	fig := &Figure{
		ID:     "fig18",
		Title:  "Varying database size: query cost @ rel-error 0.1, COUNT(schools)",
		XLabel: "fraction",
		YLabel: "query cost",
	}
	specs := []AlgoSpec{nnoSpec(), lrSpec(), lnrSpec()}
	ys := make([][]float64, len(specs))
	for _, frac := range fracs {
		db := sc.DB.Subsample(frac, cfg.Seed+101)
		sub := &workload.Scenario{Name: sc.Name, Bounds: sc.Bounds, DB: db, Grid: sc.Grid}
		truth := float64(db.Len())
		for si, spec := range specs {
			ts, err := runTraces(ctx, cfg, sub, spec, core.CountSpec(), truth)
			if err != nil {
				return nil, err
			}
			ys[si] = append(ys[si], ts.meanCostToReach(0.1))
		}
	}
	for si, spec := range specs {
		fig.Series = append(fig.Series, Series{Name: spec.Name, X: fracs, Y: ys[si]})
	}
	return fig, nil
}

// Fig19 reproduces Figure 19 — query cost to reach relative error 0.1
// versus the number of exploited results: fixed h = 1…k versus the
// adaptive strategy of §3.2.3, for both AGG estimators.
func Fig19(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.USASchools(cfg.N, cfg.Seed)
	truth := float64(sc.DB.Len())
	xs := make([]float64, 0, cfg.K+1)
	var lrY, lnrY []float64
	for h := 1; h <= cfg.K; h++ {
		xs = append(xs, float64(h))
		lr := lrSpec()
		lr.LR.FixedH = h
		ts, err := runTraces(ctx, cfg, sc, lr, core.CountSpec(), truth)
		if err != nil {
			return nil, err
		}
		lrY = append(lrY, ts.meanCostToReach(0.1))

		lnr := lnrSpec()
		lnr.LNR.H = h
		ts, err = runTraces(ctx, cfg, sc, lnr, core.CountSpec(), truth)
		if err != nil {
			return nil, err
		}
		lnrY = append(lnrY, ts.meanCostToReach(0.1))
	}
	// Adaptive (x plotted one past k, as the paper's "Adaptive" tick).
	xs = append(xs, float64(cfg.K+1))
	lrA := lrSpec() // FixedH = 0 → adaptive
	ts, err := runTraces(ctx, cfg, sc, lrA, core.CountSpec(), truth)
	if err != nil {
		return nil, err
	}
	lrY = append(lrY, ts.meanCostToReach(0.1))
	// LNR has no adaptive-h analogue in the paper; repeat h=1 as its
	// reference point.
	lnrA := lnrSpec()
	ts, err = runTraces(ctx, cfg, sc, lnrA, core.CountSpec(), truth)
	if err != nil {
		return nil, err
	}
	lnrY = append(lnrY, ts.meanCostToReach(0.1))
	return &Figure{
		ID:     "fig19",
		Title:  "Varying k: query cost @ rel-error 0.1 (last tick = adaptive)",
		XLabel: "h (k+1 = adaptive)",
		YLabel: "query cost",
		Series: []Series{
			{Name: "LR-LBS-AGG", X: xs, Y: lrY},
			{Name: "LNR-LBS-AGG", X: xs, Y: lnrY},
		},
	}, nil
}

// Fig20 reproduces Figure 20 — the ablation of the error-reduction
// strategies: LR-LBS-AGG-0 (none) through LR-LBS-AGG (all four),
// added in the paper's order.
func Fig20(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.USASchools(cfg.N, cfg.Seed)
	truth := float64(sc.DB.Len())
	variants := []AlgoSpec{
		{Name: "LR-LBS-AGG-0", Kind: AlgoLR, LR: core.LROptions{FixedH: 1}},
		{Name: "LR-LBS-AGG-1", Kind: AlgoLR, LR: core.LROptions{FixedH: 1, FastInit: true}},
		{Name: "LR-LBS-AGG-2", Kind: AlgoLR, LR: core.LROptions{FixedH: 1, FastInit: true, UseHistory: true}},
		{Name: "LR-LBS-AGG-3", Kind: AlgoLR, LR: core.LROptions{FastInit: true, UseHistory: true}},
		{Name: "LR-LBS-AGG", Kind: AlgoLR, LR: paperLROptions(0)},
	}
	return costVsErrorFigure(ctx, cfg, sc,
		"fig20", "Query savings of error-reduction strategies (cumulative)",
		variants, core.CountSpec(), truth)
}

// Fig21 reproduces Figure 21 — localization accuracy: the fraction of
// targets localized within each distance bucket, for a map service
// treated as LNR (no obfuscation — the "Google Places" curve) versus
// an obfuscating social network (the "WeChat" curve). Distances are
// reported in metres (plane units are km).
func Fig21(ctx context.Context, cfg Config) (*Figure, error) {
	targets := cfg.Runs * 8 // paper: 200 targets at full scale
	if targets > cfg.N/2 {
		targets = cfg.N / 2
	}
	buckets := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 150}
	fig := &Figure{
		ID:     "fig21",
		Title:  "Localization accuracy (fraction of targets within distance)",
		XLabel: "metres",
		YLabel: "cumulative fraction",
	}
	for _, tc := range []struct {
		name string
		sc   *workload.Scenario
	}{
		{"Google Places (LNR)", workload.StarbucksUS(cfg.N, 0, cfg.Seed)},
		{"WeChat", workload.WeChatChina(cfg.N, cfg.Seed)},
	} {
		errsM, err := localizationErrors(ctx, tc.sc, targets, cfg.Seed)
		if err != nil {
			return nil, err
		}
		y := make([]float64, len(buckets))
		for i, b := range buckets {
			cnt := 0
			for _, e := range errsM {
				if e <= b {
					cnt++
				}
			}
			if len(errsM) > 0 {
				y[i] = float64(cnt) / float64(len(errsM))
			} else {
				y[i] = math.NaN()
			}
		}
		fig.Series = append(fig.Series, Series{Name: tc.name, X: buckets, Y: y})
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("%s: %d/%d targets localized", tc.name, len(errsM), targets))
	}
	return fig, nil
}

// localizationErrors localizes `targets` random tuples over an LNR
// view and returns the distances (in metres) between inferred and
// true positions.
func localizationErrors(ctx context.Context, sc *workload.Scenario, targets int, seed int64) ([]float64, error) {
	svc := lbs.NewService(sc.DB, lbs.Options{K: 8})
	agg := core.NewLNRAggregator(svc, core.LNROptions{
		Seed:    seed,
		EdgeEps: sc.Bounds.Diagonal() * 2e-6, // metre-scale precision
	})
	var errs []float64
	n := sc.DB.Len()
	step := n / targets
	if step < 1 {
		step = 1
	}
	for i := 0; i < n && len(errs) < targets; i += step {
		tp := sc.DB.Tuple(i)
		anchor := sc.DB.EffectiveLoc(i)
		got, err := agg.Localize(ctx, tp.ID, anchor)
		if err != nil {
			continue // target skipped (degenerate cell); reported via counts
		}
		errs = append(errs, got.Dist(tp.Loc)*1000) // km → m
	}
	return errs, nil
}

// Table1Row is one row of the online-demonstration table.
type Table1Row struct {
	LBS       string
	Aggregate string
	Estimate  float64
	Truth     float64
	RelErr    float64
	Budget    int64
}

// Table1 reproduces Table 1 — the online demonstrations: Starbucks
// counts over a Google-Places-like LR service, an Austin sub-region
// count, and user counts plus gender ratios over WeChat/Weibo-like
// LNR services, each at the paper's query budget (scaled by cfg).
func Table1(ctx context.Context, cfg Config) ([]Table1Row, error) {
	var rows []Table1Row

	// COUNT(Starbucks in US) with pass-through selection, budget 5000.
	sb := workload.StarbucksUS(cfg.N, cfg.N*4, cfg.Seed)
	svc := lbs.NewService(sb.DB, lbs.Options{K: cfg.K})
	starbucks := lrSpec()
	starbucks.Filter = lbs.NameFilter("Starbucks")
	starbucks.Weighted = true
	res, err := runOne(ctx, svc, sb, starbucks, []core.AggSpec{core.CountSpec()}, geom.Rect{}, cfg.Seed, cfg.Budget/5)
	if err != nil {
		return nil, err
	}
	truth := float64(sb.DB.Count(func(t *lbs.Tuple) bool { return t.Name == "Starbucks" }))
	rows = append(rows, Table1Row{
		LBS: "Google Places", Aggregate: "COUNT(Starbucks in US)",
		Estimate: res[0].Estimate, Truth: truth, RelErr: res[0].RelErr(truth),
		Budget: res[0].Queries,
	})

	// COUNT(restaurants in Austin open on Sundays): pass-through
	// category filter + post-processed open-Sunday + region restriction.
	austin := workload.MetroBox(sb.DB, 120)
	openSunday := core.CountSpec().WithWhere(core.And(core.TagEq("open_sunday", "yes"), core.InRect(austin)))
	restaurants := lrSpec()
	restaurants.Filter = lbs.CategoryFilter("restaurant")
	svc2 := lbs.NewService(sb.DB, lbs.Options{K: cfg.K})
	res2, err := runOne(ctx, svc2, sb, restaurants, []core.AggSpec{openSunday}, austin, cfg.Seed+1, cfg.Budget/5)
	if err != nil {
		return nil, err
	}
	truth2 := float64(sb.DB.Count(func(t *lbs.Tuple) bool {
		return t.Category == "restaurant" && t.Tag("open_sunday") == "yes" && austin.Contains(t.Loc)
	}))
	rows = append(rows, Table1Row{
		LBS: "Google Places", Aggregate: "COUNT(restaurants in Austin open Sundays)",
		Estimate: res2[0].Estimate, Truth: truth2, RelErr: relOrNaN(res2[0].Estimate, truth2),
		Budget: res2[0].Queries,
	})

	// WeChat / Weibo: COUNT(users) and gender ratio over LNR.
	for _, tc := range []struct {
		name string
		sc   *workload.Scenario
		k    int
	}{
		{"WeChat", workload.WeChatChina(cfg.N, cfg.Seed+2), 10},
		{"Weibo", workload.WeiboChina(cfg.N, cfg.Seed+3), 10},
	} {
		svcL := lbs.NewService(tc.sc.DB, lbs.Options{K: tc.k})
		lnr := lnrSpec()
		lnr.Weighted = true
		aggs := []core.AggSpec{core.CountSpec(), core.CountSpec().WithWhere(core.TagEq("gender", "m"))}
		resL, err := runOne(ctx, svcL, tc.sc, lnr, aggs, geom.Rect{}, cfg.Seed+9, cfg.Budget*2/5)
		if err != nil {
			return nil, err
		}
		truthN := float64(tc.sc.DB.Len())
		rows = append(rows, Table1Row{
			LBS: tc.name, Aggregate: "COUNT(users)",
			Estimate: resL[0].Estimate, Truth: truthN, RelErr: resL[0].RelErr(truthN),
			Budget: resL[0].Queries,
		})
		ratio := core.RatioOf(resL[1], resL[0])
		truthRatio := float64(tc.sc.DB.Count(func(t *lbs.Tuple) bool { return t.Tag("gender") == "m" })) / truthN
		rows = append(rows, Table1Row{
			LBS: tc.name, Aggregate: "male fraction",
			Estimate: ratio.Estimate, Truth: truthRatio, RelErr: relOrNaN(ratio.Estimate, truthRatio),
			Budget: resL[0].Queries,
		})
	}
	return rows, nil
}

func relOrNaN(est, truth float64) float64 {
	if truth == 0 {
		return math.NaN()
	}
	return math.Abs(est-truth) / math.Abs(truth)
}

// WriteTable1 renders the Table 1 rows.
func WriteTable1(w interface{ Write([]byte) (int, error) }, rows []Table1Row) {
	fmt.Fprintf(w, "== table1: Summary of online experiments ==\n")
	fmt.Fprintf(w, "%-14s %-44s %14s %14s %9s %8s\n", "LBS", "Aggregate", "Estimate", "Truth", "RelErr", "Queries")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-44s %14.4g %14.4g %9.3f %8d\n",
			r.LBS, r.Aggregate, r.Estimate, r.Truth, r.RelErr, r.Budget)
	}
	fmt.Fprintln(w)
}
