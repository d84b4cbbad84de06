package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/sampling"
)

// Estimator is a sample source: an estimation algorithm that can draw
// one i.i.d. point sample and weight the records it returns, so that
// Σ_i Value(rec_i)·w_i is an unbiased per-sample estimate of any
// aggregate (see Sample). LRAggregator, LNRAggregator and NNOBaseline
// all implement it; any future algorithm that does runs through the
// same Run and gets budgets, traces, early stopping and parallel
// execution for free.
type Estimator interface {
	// Step draws one random query location and returns the records
	// that contribute to its sample, each with its weight. needLoc asks
	// for every record's location, which a rank-only interface must
	// infer at a query cost (§4.3). Queries issued during the step must
	// honor ctx.
	Step(ctx context.Context, needLoc bool) (Sample, error)
	// Service returns the Oracle the estimator queries, for cost
	// accounting (the paper's metric is the Oracle's QueryCount).
	Service() Oracle
	// Fork returns an independent estimator of the same configuration
	// over the same service, with its randomness re-seeded by seed.
	// Forks share no mutable state with the receiver or each other, so
	// Run may run them concurrently; the samples they draw stay
	// i.i.d. from the same query distribution.
	Fork(seed int64) Estimator
}

// drawSource is what every estimator draws its samples from: the
// oracle, the random stream, the query-location sampler and the
// estimation region (the service bounds unless a region with positive
// area is given), with the sampler uniform over the region unless one
// is given.
type drawSource struct {
	svc   Oracle
	rng   *rand.Rand
	smp   sampling.Sampler
	bound geom.Rect
}

func newDrawSource(svc Oracle, region geom.Rect, smp sampling.Sampler, seed int64) drawSource {
	if region.Area() <= 0 {
		region = svc.Bounds()
	}
	if smp == nil {
		smp = sampling.NewUniform(region)
	}
	return drawSource{svc: svc, rng: rand.New(rand.NewSource(seed)), smp: smp, bound: region}
}

// Service returns the Oracle the estimator queries, implementing
// Estimator.
func (d *drawSource) Service() Oracle { return d.svc }

// forkSeed is the seed of a fork for Run's parallel mode: a draw from
// the receiver's generator mixed with the caller-supplied index, so
// successive parallel runs on the same estimator spawn forks with
// fresh, independent random walks instead of replaying the previous
// run's samples.
func (d *drawSource) forkSeed(seed int64) int64 { return d.rng.Int63() ^ (seed << 32) }

// massOfRegion returns ∫_region f — the selection probability of the
// tuple whose (tentative) cell the region is, under the sampler f.
func (d *drawSource) massOfRegion(region *cell.Complex) float64 {
	var mass float64
	for _, f := range region.Faces() {
		mass += d.smp.IntegratePolygon(f.Poly)
	}
	return mass
}

// All three algorithms of the paper plug into Run.
var (
	_ Estimator = (*LRAggregator)(nil)
	_ Estimator = (*LNRAggregator)(nil)
	_ Estimator = (*NNOBaseline)(nil)
)

// runConfig is the resolved option set of one Run call: the sampler
// bounds plus Run's trace and progress sinks.
type runConfig struct {
	sampler
	progress func([]TracePoint)
	noTrace  bool
}

// RunOption configures an estimation run (see Run).
type RunOption func(*runConfig)

// WithMaxSamples stops the run after n completed point samples
// (0 = unlimited).
func WithMaxSamples(n int) RunOption {
	return func(c *runConfig) { c.maxSamples = n }
}

// WithMaxQueries stops the run once the service has answered n queries
// on behalf of this run (0 = unlimited). The limit is checked before
// each step, so a run finishes the steps in flight and may overshoot by
// one sample's worth of queries per worker: under WithParallelism(p)
// up to p samples are in flight. Against a paid or hard-capped remote
// API, enforce the cap on the service side (ServiceOptions.Budget or
// the adapter) as well.
func WithMaxQueries(n int64) RunOption {
	return func(c *runConfig) { c.maxQueries = n }
}

// ciMinSamples is the number of samples required before the TargetCI
// stopping rule is consulted; earlier the variance estimate is too
// noisy to trust.
const ciMinSamples = 16

// WithTargetCI stops the run once every aggregate's 95 % confidence
// half-width has fallen below rel × |estimate| (after a minimum of
// ciMinSamples samples). rel ≤ 0 disables the rule.
func WithTargetCI(rel float64) RunOption {
	return func(c *runConfig) { c.targetCI = rel }
}

// WithProgress registers a streaming callback invoked after every
// completed sample with one TracePoint per aggregate (index-aligned
// with the aggs given to Run). The callback runs on the goroutine that
// called Run; it must not block for long and must not call back into
// the run.
func WithProgress(fn func(points []TracePoint)) RunOption {
	return func(c *runConfig) { c.progress = fn }
}

// WithoutTrace disables recording the per-sample trace in the
// Results (Result.Trace stays nil). The trace grows by one point per
// aggregate per sample, so effectively unbounded runs — long-lived
// estimation jobs streaming progress elsewhere — should not also
// accumulate it in memory. WithProgress still streams every point.
func WithoutTrace() RunOption {
	return func(c *runConfig) { c.noTrace = true }
}

// WithParallelism draws point samples from n concurrent workers, each
// an independent Fork of the estimator, that share the run's samples;
// the calling goroutine folds their samples into one set of running
// means in arrival order. Samples are i.i.d. and order-free, so the
// estimate has the same distribution as a serial run of equal size
// (though not the same bits: which worker draws which sample depends
// on scheduling); with a remote (latency-bound) Oracle the wall-clock
// time shrinks almost linearly in n. n ≤ 1 means serial.
func WithParallelism(n int) RunOption {
	return func(c *runConfig) { c.parallelism = n }
}

// Run executes est against its service: it repeatedly draws samples,
// folds them into running accumulators, records the
// estimate-versus-cost trace, and stops on whichever bound — sample
// count, query budget, confidence target, service exhaustion or
// context cancellation — triggers first. With no options it runs until
// the service refuses further queries (lbs.ErrBudgetExhausted) or ctx
// is canceled. The estimators' Run methods delegate here.
//
// Cancellation is graceful: a context canceled mid-run behaves like an
// exhausted budget, returning the Results of the samples completed so
// far (an error is returned only when not even one sample finished).
//
// Run is the planner's execution over caller-supplied aggregates: a
// plan whose specs are the aggregates themselves, one each.
func Run(ctx context.Context, est Estimator, aggs []Aggregate, opts ...RunOption) ([]Result, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("core: no aggregates given")
	}
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	plan := &QueryPlan{Aggs: aggs}
	for j := range aggs {
		plan.entries = append(plan.entries, planEntry{num: j, den: -1, name: aggs[j].Name})
		plan.NeedsLocation = plan.NeedsLocation || aggs[j].NeedsLocation
	}
	st := newRunState(plan, est)
	s := cfg.sampler
	s.svc = est.Service()
	s.startQ = s.svc.QueryCount()
	var traces [][]TracePoint
	if !cfg.noTrace {
		traces = make([][]TracePoint, len(aggs))
	}
	if traces != nil || cfg.progress != nil {
		s.emit = func(st *runState, _ bool) {
			for j := range traces {
				traces[j] = append(traces[j], st.points[j])
			}
			if cfg.progress != nil {
				cfg.progress(st.points)
			}
		}
	}
	if err := s.run(ctx, &st); err != nil {
		return nil, err
	}
	if st.samples == 0 {
		return nil, noSamples(ctx)
	}
	results := make([]Result, len(aggs))
	for j := range results {
		results[j] = st.specResult(j)
		results[j].DegradedSamples = st.degraded
		if traces != nil {
			results[j].Trace = traces[j]
		}
	}
	return results, nil
}

// noSamples is the error of a run that completed no sample: the
// context's own error when it was canceled, budget exhaustion
// otherwise.
func noSamples(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("core: budget exhausted before completing a single sample")
}

// stopErr reports whether err ends the run gracefully rather than
// fatally: the service budget is spent, or the run's own context was
// canceled. A context-flavored error while ctx is still live (e.g. a
// per-request http.Client timeout) is a transport failure, not a
// graceful stop — it must surface to the caller, or a flaky remote
// would silently truncate runs.
func stopErr(ctx context.Context, err error) bool {
	if errors.Is(err, lbs.ErrBudgetExhausted) {
		return true
	}
	return ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// degradedCount walks the service's wrapper chain (lbs.Wrapper) for a
// layer reporting how many queries it answered degraded — a federation
// router's DegradedCount, or a TolerantQuerier's absorbed annotations.
// 0 when no layer tracks degradation (every non-federated stack).
func degradedCount(svc Oracle) int64 {
	if dc, ok := lbs.Find[interface{ DegradedCount() int64 }](svc); ok {
		return dc.DegradedCount()
	}
	return 0
}

// runState is one run's execution state: its estimator, one
// running accumulator per physical aggregate, and its account.
type runState struct {
	plan *QueryPlan
	// est draws the run's samples; a parallel run forks it.
	est      Estimator
	accs     []Accumulator
	samples  int
	queries  int64
	degraded int
	ciMet    bool
	// progress buffers, reused per sample.
	points  []TracePoint
	partial []Result
}

func newRunState(plan *QueryPlan, est Estimator) runState {
	return runState{
		plan:    plan,
		est:     est,
		accs:    make([]Accumulator, len(plan.Aggs)),
		points:  make([]TracePoint, len(plan.Aggs)),
		partial: make([]Result, len(plan.entries)),
	}
}

// sampler is the package's one sampling loop: it draws a run's
// samples, folds them into the running means, streams each one, and
// stops on the sample cap, the query budget, the context or the CI
// target. Run and Execute both run it once over the whole run.
type sampler struct {
	svc    Oracle
	startQ int64 // the run's query origin: budget base and trace cost axis
	// maxSamples and maxQueries cap the run (0 = unlimited).
	maxSamples  int
	maxQueries  int64
	targetCI    float64
	parallelism int
	// emit, when set, streams every folded sample; st.points holds the
	// sample's trace points.
	emit func(st *runState, degraded bool)
}

// drawn is the sample of one completed worker step.
type drawn struct {
	sample   Sample
	degraded bool
}

// run draws the run's samples into st. With parallelism ≤ 1 the
// worker body runs inline on the caller's goroutine in the serial
// check order — sample cap → query budget → ctx → step → graceful
// stop → fold/stream → CI — which keeps seeded runs bit-identical.
// Otherwise the run's estimator and its forks share the samples while
// the caller's goroutine collects: it folds every sample in arrival
// order, streams it, and evaluates the CI rule. Either way the fold —
// every aggregate's Value over the sample's records — runs on the
// caller's goroutine. Only fatal errors are returned.
func (s *sampler) run(ctx context.Context, st *runState) error {
	var taken atomic.Int64
	reserve := func() bool {
		return s.maxSamples <= 0 || taken.Add(1) <= int64(s.maxSamples)
	}
	fold := func(d drawn) bool {
		now := s.svc.QueryCount()
		st.queries = now - s.startQ
		for j := range st.accs {
			st.accs[j].Add(d.sample.Value(st.plan.Aggs[j]))
		}
		st.samples++
		if d.degraded {
			st.degraded++
		}
		if s.emit != nil {
			for j := range st.accs {
				a := &st.accs[j]
				st.points[j] = TracePoint{Queries: st.queries, Samples: a.N(), Estimate: a.Mean(), Degraded: d.degraded}
			}
			s.emit(st, d.degraded)
		}
		st.ciMet = st.ciMet || st.converged(s.targetCI)
		return !st.ciMet
	}
	var err error
	if s.parallelism > 1 {
		err = s.runWorkers(ctx, st, reserve, fold)
	} else {
		err = s.work(ctx, st.est, st.plan.NeedsLocation, reserve, fold)
	}
	st.queries = s.svc.QueryCount() - s.startQ
	return err
}

// work is the per-worker body of the sampler: reserve a sample, check
// the query budget and the context, step (needLoc is the run's
// location need, see Estimator.Step), and deliver the completed sample
// (a failed step delivers nothing). deliver returns false to
// stop the worker (the CI target is met, or the collector stopped
// listening). The budget, the service's exhaustion and cancellation
// end the worker gracefully; only fatal errors are returned.
func (s *sampler) work(ctx context.Context, est Estimator, needLoc bool, reserve func() bool, deliver func(drawn) bool) error {
	for {
		if !reserve() {
			return nil
		}
		if s.maxQueries > 0 && s.svc.QueryCount()-s.startQ >= s.maxQueries {
			return nil
		}
		if ctx.Err() != nil {
			return nil
		}
		deg0 := degradedCount(s.svc)
		sample, err := est.Step(ctx, needLoc)
		switch {
		case err != nil && !stopErr(ctx, err):
			return err
		case err != nil:
			return nil
		}
		// Any partial answer during the step marks the sample degraded.
		if !deliver(drawn{sample: sample, degraded: degradedCount(s.svc) > deg0}) {
			return nil
		}
	}
}

// runWorkers is the parallel mode of run: the run's estimator and its
// forks share the run's reservations and hand their samples to the
// caller's goroutine, which folds them in arrival order (the workers
// never call an aggregate's Value) and cancels the run once fold
// reports the CI target met (or a worker fails).
// Attribution of degradation across concurrent workers is coarse — a
// partial answer in flight may mark another worker's overlapping sample
// too — conservative in the safe direction.
func (s *sampler) runWorkers(ctx context.Context, st *runState, reserve func() bool, fold func(drawn) bool) error {
	ests := []Estimator{st.est}
	for i := 1; i < s.parallelism; i++ {
		ests = append(ests, st.est.Fork(int64(i)))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fatal error
		// One slot per worker: each can hand off a finished sample and
		// start its next step while the collector is still folding.
		samples = make(chan drawn, s.parallelism)
	)
	send := func(d drawn) bool {
		select {
		case samples <- d:
			return true
		case <-ctx.Done():
			return false
		}
	}
	for _, est := range ests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.work(ctx, est, st.plan.NeedsLocation, reserve, send)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && fatal == nil {
				fatal = err
				cancel()
			}
		}()
	}
	go func() {
		wg.Wait()
		close(samples)
	}()
	for d := range samples {
		if !fold(d) {
			cancel() // the drain continues until every worker exits
		}
	}
	return fatal
}
