package core

import (
	"context"
	"flag"
	"math"
	"testing"

	"repro/internal/lbs"
	"repro/internal/workload"
)

var allBudgetRows = flag.Bool("lrbudget.all", false,
	"TestDefaultLRAtFixedBudget: also run the slow rows (schools-50k, weibo-20k; minutes)")

// budgetRow is one fixed-budget harness row: a dataset, the service k
// and the query budget every seeded run stops at.
type budgetRow struct {
	name   string
	db     func() *lbs.Database
	k      int
	budget int64
	slow   bool // run only under -lrbudget.all
}

// budgetOutcome summarises a row's seeded COUNT runs: the RMSE relative
// to the truth, the fraction of runs whose own 95% CI covers the truth
// and the mean number of samples the budget bought.
type budgetOutcome struct {
	rmse, coverage, samples float64
}

// budgetSeeds is how many seeded runs (seeds 1…budgetSeeds) a row
// averages over.
const budgetSeeds = 24

// runAtBudget runs COUNT to the row's query budget once per seed, each
// against a fresh service, with DefaultLROptions(seed) but FixedH = h.
func runAtBudget(t *testing.T, row budgetRow, h int) budgetOutcome {
	t.Helper()
	db := row.db()
	truth := float64(db.Len())
	var sq, covered, samples float64
	for seed := int64(1); seed <= budgetSeeds; seed++ {
		opts := DefaultLROptions(seed)
		opts.FixedH = h
		agg := NewLRAggregator(lbs.NewService(db, lbs.Options{K: row.k}), opts)
		res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxQueries(row.budget))
		if err != nil {
			t.Fatal(err)
		}
		r := res[0]
		e := (r.Estimate - truth) / truth
		sq += e * e
		if math.Abs(r.Estimate-truth) <= r.CI95 {
			covered++
		}
		samples += float64(r.Samples)
	}
	return budgetOutcome{
		rmse:     math.Sqrt(sq / budgetSeeds),
		coverage: covered / budgetSeeds,
		samples:  samples / budgetSeeds,
	}
}

// TestDefaultLRAtFixedBudget requires the default LR options to be at
// least as accurate at a fixed query budget as both of their FixedH
// alternatives: the adaptive-h rule of §3.2.3 (FixedH = 0) and h = 1.
// A top-h cell with h > 1 costs many more queries than a top-1 cell,
// so the rule buys fewer samples than it saves in variance. The slow
// rows (-lrbudget.all) complete the measurement that moved the default
// to h = 1.
func TestDefaultLRAtFixedBudget(t *testing.T) {
	cluster := func() *lbs.Database { return smallService2(1500, 41) }
	schools := func(n int) func() *lbs.Database {
		return func() *lbs.Database { return workload.USASchools(n, 43).DB }
	}
	weibo := func() *lbs.Database { return workload.WeiboChina(20000, 43).DB }
	rows := []budgetRow{
		{name: "cluster-1500/k5/B5000", db: cluster, k: 5, budget: 5000},
		{name: "schools-3k/k10/B5000", db: schools(3000), k: 10, budget: 5000},
		{name: "schools-50k/k10/B5000", db: schools(50000), k: 10, budget: 5000, slow: true},
		{name: "schools-50k/k10/B40000", db: schools(50000), k: 10, budget: 40000, slow: true},
		{name: "weibo-20k/k10/B10000", db: weibo, k: 10, budget: 10000, slow: true},
		{name: "schools-3k/k10/B10000", db: schools(3000), k: 10, budget: 10000, slow: true},
		{name: "cluster-1500/k5/B10000", db: cluster, k: 5, budget: 10000, slow: true},
	}
	defaultH := DefaultLROptions(0).FixedH
	for _, row := range rows {
		if row.slow && !*allBudgetRows {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			// The default differs from each alternative only in FixedH,
			// so the alternative it equals is not run twice.
			runs := make(map[int]budgetOutcome)
			for _, h := range []int{0, 1, defaultH} {
				if _, ok := runs[h]; !ok {
					runs[h] = runAtBudget(t, row, h)
				}
			}
			def := runs[defaultH]
			for _, alt := range []struct {
				name string
				h    int
			}{{"adaptive", 0}, {"h = 1", 1}} {
				o := runs[alt.h]
				t.Logf("%-9s RMSE %.3f  coverage %.2f  samples %.0f", alt.name+":", o.rmse, o.coverage, o.samples)
				if def.rmse > o.rmse {
					t.Errorf("default (FixedH = %d) RMSE %.3f exceeds %s RMSE %.3f at budget %d",
						defaultH, def.rmse, alt.name, o.rmse, row.budget)
				}
			}
		})
	}
}
