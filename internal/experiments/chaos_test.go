package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestChaosSmoke runs the chaos sweep at tiny scale: well-formed
// figure, a finite clean baseline at rate 0, and recorded latency
// quantiles. This is the `make test` guard that keeps the chaos
// harness from rotting between bench runs.
func TestChaosSmoke(t *testing.T) {
	cfg := tinyCfg()
	cfg.Runs = 1
	cfg.Budget = 300
	fig, err := Chaos(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 6)
	// Series 0/1 are the LR/LNR error columns; at rate 0 they are the
	// clean federated baseline and must be finite (LNR variance is huge
	// at this scale, so only LR gets a magnitude bound).
	for i, s := range fig.Series[:2] {
		if math.IsNaN(s.Y[0]) || s.Y[0] < 0 {
			t.Errorf("%s clean baseline error not finite: %g", s.Name, s.Y[0])
		}
		if i == 0 && s.Y[0] > 5 {
			t.Errorf("%s clean baseline error implausible: %g", s.Name, s.Y[0])
		}
	}
	// The latency columns must have recorded something positive
	// (injected latency has a 200µs median, so ~0 means unmeasured).
	for _, s := range fig.Series[2:] {
		for i, y := range s.Y {
			if math.IsNaN(y) || y <= 0 {
				t.Errorf("%s[%d]: latency quantile %g", s.Name, i, y)
			}
		}
	}
	found := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "router totals") {
			found = true
		}
	}
	if !found {
		t.Errorf("figure notes missing router totals: %q", fig.Notes)
	}
}

// BenchmarkChaos is the recordable flavor of the chaos experiment (the
// chaos suite of make bench-record → BENCH_chaos.json): one sub-benchmark per
// fault rate running a full LR COUNT estimation over the faulted
// 4-shard federation, reporting the relative estimation error, the
// p50/p99 per-query latency and the router's retry/partial totals as
// custom metrics. All seeds are fixed, so -benchtime 1x yields a
// measurement, not noise.
func BenchmarkChaos(b *testing.B) {
	cfg := Config{N: 600, Runs: 1, Budget: 3000, K: 5, Seed: 11}
	sc := workload.USASchools(cfg.N, cfg.Seed)
	truth := float64(sc.DB.Len())
	parts := shard.Partition(sc.DB, 4)
	res := chaosResilience()
	svcOpts := lbs.Options{K: cfg.K}
	for _, rate := range chaosRates() {
		b.Run(fmt.Sprintf("rate=%g", rate), func(b *testing.B) {
			var relerr float64
			var retries, partials int64
			timed := &timedOracle{}
			for i := 0; i < b.N; i++ {
				seed := cfg.Seed + int64(i)*7919
				router, err := shard.FromPartsWrapped(parts, svcOpts, res, func(si int, q lbs.Querier) lbs.Querier {
					return faults.New(q, faults.Spec{
						Seed:          seed + int64(si)*101,
						TransientRate: rate,
						Latency:       200 * time.Microsecond,
						LatencySigma:  0.6,
					})
				})
				if err != nil {
					b.Fatal(err)
				}
				timed.Querier = lbs.NewTolerantQuerier(router)
				resu, err := runOne(context.Background(), timed, sc, lrSpec(), []core.AggSpec{core.CountSpec()}, geom.Rect{}, seed, cfg.Budget)
				if errors.Is(err, shard.ErrOwnerDown) {
					continue // crisply aborted run — a chaos outcome
				}
				if err != nil {
					b.Fatal(err)
				}
				relerr = math.Abs(resu[0].Estimate-truth) / truth
				st := router.Stats()
				retries, partials = st.Retries, st.Partial
			}
			b.ReportMetric(relerr, "relerr")
			b.ReportMetric(timed.quantile(0.50), "p50-ms")
			b.ReportMetric(timed.quantile(0.99), "p99-ms")
			b.ReportMetric(float64(retries), "retries")
			b.ReportMetric(float64(partials), "partials")
		})
	}
}
