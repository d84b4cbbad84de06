package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lbs"
)

// Estimator is a sample source: an estimation algorithm that can draw
// one i.i.d. point sample and turn it into one unbiased per-sample
// estimate for each aggregate. LRAggregator, LNRAggregator and
// NNOBaseline all implement it; any future algorithm that does plugs
// into the same Driver and gets budgets, traces, early stopping and
// parallel execution for free.
type Estimator interface {
	// Step draws one random query location and returns one per-sample
	// estimate per aggregate. Queries issued during the step must
	// honor ctx.
	Step(ctx context.Context, aggs []Aggregate) ([]float64, error)
	// Service returns the Oracle the estimator queries, for cost
	// accounting (the paper's metric is the Oracle's QueryCount).
	Service() Oracle
	// Fork returns an independent estimator of the same configuration
	// over the same service, with its randomness re-seeded by seed.
	// Forks share no mutable state with the receiver or each other, so
	// a Driver may run them concurrently; the samples they draw stay
	// i.i.d. from the same query distribution.
	Fork(seed int64) Estimator
}

// All three algorithms of the paper plug into the Driver.
var (
	_ Estimator = (*LRAggregator)(nil)
	_ Estimator = (*LNRAggregator)(nil)
	_ Estimator = (*NNOBaseline)(nil)
)

// runConfig is the resolved option set of one Run call: the sampler
// bounds plus the Driver's trace and progress sinks.
type runConfig struct {
	sampler
	progress func([]TracePoint)
	noTrace  bool
}

// RunOption configures an estimation run (see Driver.Run).
type RunOption func(*runConfig)

// WithMaxSamples stops the run after n completed point samples
// (0 = unlimited).
func WithMaxSamples(n int) RunOption {
	return func(c *runConfig) { c.maxSamples = n }
}

// WithMaxQueries stops the run once the service has answered n queries
// on behalf of this run (0 = unlimited). The limit is checked before
// each step, so a run finishes the steps in flight and may overshoot by
// one step's worth of queries per worker: under WithParallelism(p) up
// to p steps are in flight, and under WithBatch(m) each step is a whole
// batch, so the bound is p×m samples' worth. Against a paid or
// hard-capped remote API, enforce the cap on the service side
// (ServiceOptions.Budget or the adapter) as well.
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

// Driver executes an Estimator against its service: it repeatedly
// draws samples, folds them into running accumulators, records the
// estimate-versus-cost trace, and stops on whichever bound — sample
// count, query budget, confidence target, service exhaustion or
// context cancellation — triggers first.
//
// Cancellation is graceful: a context canceled mid-run behaves like an
// exhausted budget, returning the Results of the samples completed so
// far (an error is returned only when not even one sample finished).
type Driver struct {
	Est Estimator
}

// Run executes the estimation. See the package documentation for the
// stopping rules; with no options it runs until the service refuses
// further queries (lbs.ErrBudgetExhausted) or ctx is canceled.
//
// Run is the one-group case of the planner's execution: the caller's
// aggregates form a single group, each its own spec, sampled as one
// chunk with no quota.
func (d *Driver) Run(ctx context.Context, aggs []Aggregate, opts ...RunOption) ([]Result, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("core: no aggregates given")
	}
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	grp := &PlanGroup{Aggs: aggs}
	for j := range aggs {
		grp.entries = append(grp.entries, planEntry{num: j, den: -1, name: aggs[j].Name})
	}
	st := newGroupState(0, grp, d.Est)
	s := cfg.sampler
	s.svc = d.Est.Service()
	s.startQ = s.svc.QueryCount()
	var traces [][]TracePoint
	if !cfg.noTrace {
		traces = make([][]TracePoint, len(aggs))
	}
	if traces != nil || cfg.progress != nil {
		s.emit = func(st *groupState, _ bool) {
			for j := range traces {
				traces[j] = append(traces[j], st.points[j])
			}
			if cfg.progress != nil {
				cfg.progress(st.points)
			}
		}
	}
	if _, err := s.run(ctx, &st, 0); err != nil {
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

// Run is the convenience entry point the estimators' Run methods
// delegate to: Run(ctx, est, aggs, opts...) ≡ (&Driver{Est: est}).Run.
func Run(ctx context.Context, est Estimator, aggs []Aggregate, opts ...RunOption) ([]Result, error) {
	return (&Driver{Est: est}).Run(ctx, aggs, opts...)
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
	cur := any(svc)
	for cur != nil {
		if dc, ok := cur.(interface{ DegradedCount() int64 }); ok {
			return dc.DegradedCount()
		}
		w, ok := cur.(lbs.Wrapper)
		if !ok {
			return 0
		}
		cur = w.Inner()
	}
	return 0
}

// groupState is one group's execution state: its sample workers, one
// running accumulator per physical aggregate, and its account.
type groupState struct {
	gi  int
	grp *PlanGroup
	// workers[0] is the group's own estimator over grp.Aggs; forks join
	// on the first parallel chunk and persist across chunks, so their
	// random streams continue instead of replaying.
	workers  []worker
	accs     []Accumulator
	samples  int
	queries  int64
	degraded int
	done     bool
	ciMet    bool
	// progress buffers, reused per sample.
	points  []TracePoint
	partial []Result
}

// worker is one sample source of a group: an estimator and the
// aggregates it evaluates.
type worker struct {
	est  Estimator
	aggs []Aggregate
}

func newGroupState(gi int, grp *PlanGroup, est Estimator) groupState {
	return groupState{
		gi:      gi,
		grp:     grp,
		workers: []worker{{est: est, aggs: grp.Aggs}},
		accs:    make([]Accumulator, len(grp.Aggs)),
		points:  make([]TracePoint, len(grp.Aggs)),
		partial: make([]Result, len(grp.entries)),
	}
}

// sampler is the package's one sampling loop: it draws a group's
// samples, folds them into the group's running means, streams each
// one, and stops on the sample cap, the shared query budget, the
// context or the CI target. Driver.Run runs it once over the whole
// run; Execute runs it once per checkpoint chunk of each group.
type sampler struct {
	svc    Oracle
	startQ int64 // the run's query origin: budget base and trace cost axis
	// maxSamples caps each group (0 = unlimited); maxQueries caps the
	// whole run (0 = unlimited).
	maxSamples  int
	maxQueries  int64
	targetCI    float64
	batch       int
	parallelism int
	// emit, when set, streams every folded sample; st.points holds the
	// sample's trace points.
	emit func(st *groupState, degraded bool)
}

// drawn is the completed samples of one worker step.
type drawn struct {
	vals     [][]float64
	degraded bool
}

// run draws up to quota samples (0 = no quota) into st. With
// parallelism ≤ 1 the worker body runs inline on the caller's
// goroutine in the serial check order — sample cap → shared budget →
// ctx → step → fold/stream → graceful stop → CI — which keeps seeded
// runs bit-identical. Otherwise the group's estimator and its forks
// share the chunk's samples while the caller's goroutine collects:
// it folds every batch in arrival order, streams it, and evaluates the
// CI rule. exhausted reports that the shared budget or the service's
// own ended the run; only fatal errors are returned.
func (s *sampler) run(ctx context.Context, st *groupState, quota int) (exhausted bool, err error) {
	// limit bounds the samples this chunk may reserve (-1 = unbounded);
	// capped marks the group's sample cap as the binding bound, so
	// reaching it retires the group.
	limit, capped := int64(-1), false
	if quota > 0 {
		limit = int64(quota)
	}
	if s.maxSamples > 0 {
		if rem := int64(s.maxSamples - st.samples); limit < 0 || rem < limit {
			limit, capped = rem, true
		}
	}
	batch := int64(max(s.batch, 1))
	var taken atomic.Int64
	reserve := func() int {
		if limit < 0 {
			return int(batch)
		}
		over := taken.Add(batch) - limit
		if over >= batch {
			return 0
		}
		return int(batch - max(over, 0))
	}

	chunkStart, base := s.svc.QueryCount(), st.queries
	met := false
	fold := func(d drawn) bool {
		now := s.svc.QueryCount()
		st.queries = base + now - chunkStart
		for _, vals := range d.vals {
			for j, v := range vals {
				st.accs[j].Add(v)
			}
			st.samples++
			if d.degraded {
				st.degraded++
			}
			if s.emit != nil {
				for j := range st.accs {
					a := &st.accs[j]
					st.points[j] = TracePoint{Queries: now - s.startQ, Samples: a.N(), Estimate: a.Mean(), Degraded: d.degraded}
				}
				s.emit(st, d.degraded)
			}
		}
		met = met || st.converged(s.targetCI)
		return !met
	}
	if s.parallelism > 1 {
		exhausted, err = s.runWorkers(ctx, st, reserve, fold)
	} else {
		exhausted, err = s.work(ctx, st.workers[0], reserve, fold)
	}
	st.queries = base + s.svc.QueryCount() - chunkStart
	switch {
	case err != nil:
		return false, err
	case met && !exhausted:
		st.done, st.ciMet = true, true
	case capped && st.samples >= s.maxSamples:
		st.done = true
	}
	return exhausted, nil
}

// work is the per-worker body of the sampler: reserve a batch, check
// the shared budget and the context, step, and deliver the completed
// samples. deliver returns false to stop the worker (the CI target is
// met, or the collector stopped listening).
func (s *sampler) work(ctx context.Context, w worker, reserve func() int, deliver func(drawn) bool) (exhausted bool, err error) {
	for {
		m := reserve()
		if m == 0 {
			return false, nil
		}
		if s.maxQueries > 0 && s.svc.QueryCount()-s.startQ >= s.maxQueries {
			return true, nil
		}
		if ctx.Err() != nil {
			return false, nil
		}
		deg0 := degradedCount(s.svc)
		vals, err := stepBatch(ctx, w.est, w.aggs, m)
		// Degradation is attributed at batch grain: any partial answer
		// during the batch marks every sample the batch completed.
		more := deliver(drawn{vals: vals, degraded: degradedCount(s.svc) > deg0})
		switch {
		case errors.Is(err, lbs.ErrBudgetExhausted):
			return true, nil
		case err != nil && !stopErr(ctx, err):
			return false, err
		case err != nil || !more:
			return false, nil
		}
	}
}

// runWorkers is the parallel mode of run: the group's estimator and
// its forks share the chunk's reservations and hand their batches to
// the caller's goroutine, which folds them in arrival order and cancels
// the chunk once fold reports the CI target met (or a worker fails).
// Attribution of degradation across concurrent workers is coarse — a
// partial answer in flight may mark another worker's overlapping batch
// too — conservative in the safe direction.
func (s *sampler) runWorkers(ctx context.Context, st *groupState, reserve func() int, fold func(drawn) bool) (bool, error) {
	for i := len(st.workers); i < s.parallelism; i++ {
		st.workers = append(st.workers, worker{est: st.workers[0].est.Fork(int64(i)), aggs: st.grp.forkAggs()})
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		exhausted bool
		fatal     error
		// One slot per worker: each can hand off a finished batch and
		// start its next step while the collector is still folding.
		batches = make(chan drawn, s.parallelism)
	)
	send := func(d drawn) bool {
		select {
		case batches <- d:
			return true
		case <-ctx.Done():
			return false
		}
	}
	for _, w := range st.workers[:s.parallelism] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex, err := s.work(ctx, w, reserve, send)
			mu.Lock()
			defer mu.Unlock()
			exhausted = exhausted || ex
			if err != nil && fatal == nil {
				fatal = err
				cancel()
			}
		}()
	}
	go func() {
		wg.Wait()
		close(batches)
	}()
	for d := range batches {
		if !fold(d) {
			cancel() // the drain continues until every worker exits
		}
	}
	return exhausted, fatal
}
