package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// timedOracle wraps a querier and records the wall-clock latency of
// every oracle call, for the chaos experiment's p50/p99 columns. A
// batch call is one observation, like a single-point query: the
// columns are per round trip (LNR sends its cell-search probes in
// batches).
type timedOracle struct {
	lbs.Querier
	mu  sync.Mutex
	lat []time.Duration
}

// Inner implements lbs.Wrapper, so lbs.Walk sees through the timer.
func (t *timedOracle) Inner() lbs.Querier { return t.Querier }

func (t *timedOracle) observe(d time.Duration) {
	t.mu.Lock()
	t.lat = append(t.lat, d)
	t.mu.Unlock()
}

func (t *timedOracle) QueryLR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	t0 := time.Now()
	recs, err := t.Querier.QueryLR(ctx, q, filter)
	t.observe(time.Since(t0))
	return recs, err
}

func (t *timedOracle) QueryLNR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LNRRecord, error) {
	t0 := time.Now()
	recs, err := t.Querier.QueryLNR(ctx, q, filter)
	t.observe(time.Since(t0))
	return recs, err
}

func (t *timedOracle) QueryLRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	t0 := time.Now()
	recs, err := t.Querier.QueryLRBatch(ctx, pts, filter)
	t.observe(time.Since(t0))
	return recs, err
}

func (t *timedOracle) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error) {
	t0 := time.Now()
	recs, err := t.Querier.QueryLNRBatch(ctx, pts, filter)
	t.observe(time.Since(t0))
	return recs, err
}

// quantile returns the q-quantile of the recorded latencies in
// milliseconds (NaN when nothing was recorded).
func (t *timedOracle) quantile(q float64) float64 {
	t.mu.Lock()
	buf := make([]time.Duration, len(t.lat))
	copy(buf, t.lat)
	t.mu.Unlock()
	if len(buf) == 0 {
		return math.NaN()
	}
	sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
	idx := int(q * float64(len(buf)))
	if idx >= len(buf) {
		idx = len(buf) - 1
	}
	return float64(buf[idx]) / float64(time.Millisecond)
}

// chaosRates is the fault-rate sweep of the chaos experiment: a clean
// baseline plus three per-call transient failure rates.
func chaosRates() []float64 { return []float64{0, 0.02, 0.05, 0.1} }

// chaosResilience is the router configuration the chaos sweep runs
// under: the default policy with timers scaled to in-process members
// (microsecond injected latencies, not network round-trips).
func chaosResilience() shard.Resilience {
	res := shard.DefaultResilience()
	res.ShardTimeout = 2 * time.Second
	// Retries are nearly free against in-process members, and the
	// sweep goes up to a 10 % per-call failure rate: 4 retries push
	// the chance of an owner call failing all its attempts (which
	// crisply aborts that run — the pinned owner-down contract) to
	// 0.1⁵ per call.
	res.MaxRetries = 4
	res.RetryBase = 100 * time.Microsecond
	res.RetryMax = 5 * time.Millisecond
	res.BreakerCooldown = 100 * time.Millisecond
	return res
}

// Chaos sweeps injected fault rates × estimator over a faulted
// federation: COUNT(schools) by LR-LBS-AGG and LNR-LBS-AGG against
// cfg.Shards (default 4) in-process shards, each behind a
// faults.Injector with per-call transient failures at the swept rate
// plus log-normal latency, with the router's resilience layer (retry,
// breaker, degraded merging) absorbing what it can. Reported per rate
// and estimator: mean |relative error| against the true count and the
// p50/p99 per-query latency — at rate 0 the error columns are the
// clean federated baseline (bit-identical to a single service), so
// the table reads as "what does each fault rate cost in accuracy and
// tail latency".
func Chaos(ctx context.Context, cfg Config) (*Figure, error) {
	sc := workload.USASchools(cfg.N, cfg.Seed)
	truth := float64(sc.DB.Len())
	svcOpts := lbs.Options{K: cfg.K}
	nShards := cfg.Shards
	if nShards <= 1 {
		nShards = 4
	}
	parts := shard.Partition(sc.DB, nShards)
	res := chaosResilience()

	fig := &Figure{
		ID:     "chaos",
		Title:  "Estimation under injected faults: COUNT(schools) over a resilient federation",
		XLabel: "fault rate",
		YLabel: "mean |rel. error| / latency (ms)",
		Notes: []string{
			fmt.Sprintf("ground truth = %.0f; shards = %d; runs = %d; budget = %d", truth, nShards, cfg.Runs, cfg.Budget),
			"faults: per-call transient failures at the swept rate + log-normal latency (median 200µs, σ=0.6)",
			fmt.Sprintf("resilience: %d retries, breaker at %d consecutive failures", res.MaxRetries, res.BreakerThreshold),
		},
	}

	type col struct{ err, p50, p99 Series }
	cols := map[AlgoKind]*col{
		AlgoLR:  {err: Series{Name: "LR err"}, p50: Series{Name: "LR p50 ms"}, p99: Series{Name: "LR p99 ms"}},
		AlgoLNR: {err: Series{Name: "LNR err"}, p50: Series{Name: "LNR p50 ms"}, p99: Series{Name: "LNR p99 ms"}},
	}
	var totalRetries, totalPartial int64
	aborted := 0

	for _, rate := range chaosRates() {
		for _, kind := range []AlgoKind{AlgoLR, AlgoLNR} {
			var errSum float64
			completed := 0
			timed := &timedOracle{}
			for r := 0; r < cfg.Runs; r++ {
				seed := cfg.Seed + int64(r)*7919
				router, err := shard.FromPartsWrapped(parts, svcOpts, res, func(i int, q lbs.Querier) lbs.Querier {
					return faults.New(q, faults.Spec{
						Seed:          seed + int64(i)*101,
						TransientRate: rate,
						Latency:       200 * time.Microsecond,
						LatencySigma:  0.6,
					})
				})
				if err != nil {
					return nil, err
				}
				// Tolerance absorbs degraded annotations so the stock
				// estimators run unchanged; timing wraps the outside so
				// retries count toward the observed latency.
				timed.Querier = lbs.NewTolerantQuerier(router)
				spec := lrSpec()
				if kind == AlgoLNR {
					spec = lnrSpec()
				}
				resu, err := runOne(ctx, timed, sc, spec, []core.AggSpec{core.CountSpec()}, geom.Rect{}, seed, cfg.Budget)
				st := router.Stats()
				totalRetries += st.Retries
				totalPartial += st.Partial
				if errors.Is(err, shard.ErrOwnerDown) {
					// An owner call lost every attempt: the run aborted
					// crisply (the pinned contract). Count it instead of
					// failing the sweep — owner aborts are a chaos
					// outcome, not a harness bug.
					aborted++
					continue
				}
				if err != nil {
					return nil, fmt.Errorf("chaos rate %g run %d: %w", rate, r, err)
				}
				completed++
				errSum += math.Abs(resu[0].Estimate-truth) / truth
			}
			c := cols[kind]
			c.err.X = append(c.err.X, rate)
			if completed > 0 {
				c.err.Y = append(c.err.Y, errSum/float64(completed))
			} else {
				c.err.Y = append(c.err.Y, math.NaN())
			}
			c.p50.X = append(c.p50.X, rate)
			c.p50.Y = append(c.p50.Y, timed.quantile(0.50))
			c.p99.X = append(c.p99.X, rate)
			c.p99.Y = append(c.p99.Y, timed.quantile(0.99))
		}
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("router totals across the sweep: %d retries, %d partial answers, %d runs aborted (owner down)",
			totalRetries, totalPartial, aborted))
	fig.Series = append(fig.Series,
		cols[AlgoLR].err, cols[AlgoLNR].err,
		cols[AlgoLR].p50, cols[AlgoLR].p99,
		cols[AlgoLNR].p50, cols[AlgoLNR].p99)
	return fig, nil
}
