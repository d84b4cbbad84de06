package core

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// answerTap passes LR queries through to an Oracle, recording each
// answered point and handing each answer to seen when it is set.
type answerTap struct {
	Oracle
	points []geom.Point
	seen   chan<- []lbs.LRRecord
}

func (o *answerTap) QueryLR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LRRecord, error) {
	recs, err := o.Oracle.QueryLR(ctx, q, f)
	if err == nil {
		o.points = append(o.points, q)
		if o.seen != nil {
			o.seen <- recs
		}
	}
	return recs, err
}

// TestLRQueryDoesNotMutateCachedAnswers runs the LR estimator over a
// CachedOracle whose answers are not in planar distance order (a
// prominence ranking; a Haversine metric) and requires every cached
// answer to keep the service's order afterwards: the estimator re-sorts
// a copy, never the slice the cache hands out and documents as
// immutable. A reader goroutine walks each answer while the estimator
// runs, so under -race an in-place re-sort is also a reported race.
func TestLRQueryDoesNotMutateCachedAnswers(t *testing.T) {
	cases := []struct {
		name string
		sc   *workload.Scenario
		opts lbs.Options
	}{
		{"prominence/schools-3k", workload.USASchools(3000, 3), lbs.Options{
			K: 10, Rank: lbs.RankByProminence, ProminenceAttr: "enrollment", ProminenceWeight: 0.01,
		}},
		{"haversine/geo-us-5k", workload.GeoUS(5000, 3, workload.DensityGauss), lbs.Options{
			K: 10, Metric: geo.Haversine,
		}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := lbs.NewService(tc.sc.DB, tc.opts)
			cache := lbs.NewCachedOracle(svc, lbs.CacheOptions{})
			seen := make(chan []lbs.LRRecord)
			read := make(chan int)
			go func() {
				n := 0
				for recs := range seen {
					for _, r := range recs {
						if r.ID != 0 {
							n++
						}
					}
				}
				read <- n
			}()
			tap := &answerTap{Oracle: cache, seen: seen}
			_, err := NewLRAggregator(tap, DefaultLROptions(5)).Run(ctx, aggsOf(t, CountSpec()), WithMaxSamples(15))
			close(seen)
			<-read
			if err != nil {
				t.Fatal(err)
			}
			unsorted, moved := 0, 0
			for _, p := range tap.points {
				want, err := svc.QueryLR(ctx, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cache.QueryLR(ctx, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.IsSortedFunc(want, func(x, y lbs.LRRecord) int {
					return cmp.Compare(p.Dist2(x.Loc), p.Dist2(y.Loc))
				}) {
					unsorted++
				}
				if !slices.EqualFunc(got, want, func(x, y lbs.LRRecord) bool { return x.ID == y.ID }) {
					moved++
				}
			}
			t.Logf("%d answers, %d out of planar distance order", len(tap.points), unsorted)
			if unsorted == 0 {
				t.Fatal("every answer was in planar distance order: nothing to re-sort")
			}
			if moved > 0 {
				t.Errorf("the estimator reordered %d of %d cached answers", moved, len(tap.points))
			}
		})
	}
}

// stepLog is what one worker of a run did, in order: fork seeds
// handed to Fork (the root worker's only) and the sample of each Step.
type stepLog struct {
	opts   LROptions
	events []stepEvent
}

type stepEvent struct {
	fork   int64 // the Fork argument, when step is false
	step   bool
	sample Sample
}

// tapEstimator runs an LR aggregator and logs its forks and samples;
// its forks are tapped too, each into its own log.
type tapEstimator struct {
	agg  *LRAggregator
	log  *stepLog
	logs *[]*stepLog
	mu   *sync.Mutex
}

func newTapEstimator(agg *LRAggregator, logs *[]*stepLog, mu *sync.Mutex) *tapEstimator {
	l := &stepLog{opts: agg.opts}
	mu.Lock()
	*logs = append(*logs, l)
	mu.Unlock()
	return &tapEstimator{agg: agg, log: l, logs: logs, mu: mu}
}

func (e *tapEstimator) Service() Oracle { return e.agg.Service() }

func (e *tapEstimator) Step(ctx context.Context, needLoc bool) (Sample, error) {
	sample, err := e.agg.Step(ctx, needLoc)
	if err == nil {
		e.log.events = append(e.log.events, stepEvent{step: true, sample: sample})
	}
	return sample, err
}

func (e *tapEstimator) Fork(seed int64) Estimator {
	e.log.events = append(e.log.events, stepEvent{fork: seed})
	return newTapEstimator(e.agg.Fork(seed).(*LRAggregator), e.logs, e.mu)
}

// TestLRParallelJobsShareCache runs concurrent WithParallelism(4) LR
// jobs over one shared CachedOracle of a prominence-ranked service,
// each job behind its own query-capped scope as a jobs.Manager job is.
// Every sample of every worker must equal, bit for bit, the same
// sample of a serial in-process rerun of that worker's seed, so the
// pooled scratch sets and the cache's shared answers carry nothing
// between concurrent aggregators; and the queries must be accounted
// exactly: each job spends its cap, and the cache's hits and misses
// add up to the jobs' total, its misses to the service's count.
func TestLRParallelJobsShareCache(t *testing.T) {
	const (
		jobs   = 3
		budget = 400
	)
	db := workload.USASchools(3000, 3).DB
	opts := lbs.Options{K: 10, Rank: lbs.RankByProminence, ProminenceAttr: "enrollment", ProminenceWeight: 0.01}
	svc := lbs.NewService(db, opts)
	cache := lbs.NewCachedOracle(svc, lbs.CacheOptions{})
	ctx := context.Background()
	var (
		mu     sync.Mutex
		logs   []*stepLog
		scopes [jobs]*lbs.ScopedQuerier
		wg     sync.WaitGroup
		errs   [jobs]error
	)
	for j := range jobs {
		scopes[j] = lbs.NewScopedQuerier(cache, budget)
		est := newTapEstimator(NewLRAggregator(scopes[j], DefaultLROptions(int64(40+j))), &logs, &mu)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[j] = Run(ctx, est, aggsOf(t, CountSpec(), SumSpec("enrollment")), WithParallelism(4))
		}()
	}
	wg.Wait()
	var total int64
	for j := range jobs {
		if errs[j] != nil {
			t.Fatalf("job %d: %v", j, errs[j])
		}
		if n := scopes[j].QueryCount(); n != budget {
			t.Errorf("job %d: scope answered %d queries, want its cap %d", j, n, budget)
		}
		total += scopes[j].QueryCount()
	}
	st := cache.Stats()
	if st.Hits+st.Misses != total {
		t.Errorf("cache hits %d + misses %d != the jobs' %d queries", st.Hits, st.Misses, total)
	}
	if st.Misses != svc.QueryCount() {
		t.Errorf("cache misses %d != service queries %d", st.Misses, svc.QueryCount())
	}
	if len(logs) != 4*jobs {
		t.Fatalf("%d workers logged, want %d", len(logs), 4*jobs)
	}
	// Rerun every worker serially over a fresh in-process service.
	ref := lbs.NewService(db, opts)
	aggs := aggsOf(t, CountSpec(), SumSpec("enrollment"))
	steps := 0
	for w, l := range logs {
		agg := NewLRAggregator(ref, l.opts)
		for i, ev := range l.events {
			if !ev.step {
				agg.Fork(ev.fork)
				continue
			}
			sample, err := agg.Step(ctx, false)
			if err != nil {
				t.Fatal(err)
			}
			steps++
			for a, g := range aggs {
				if got, want := sample.Value(g), ev.sample.Value(g); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("worker %d (seed %d) event %d aggregate %d: %v in the job, %v serially",
						w, l.opts.Seed, i, a, want, got)
				}
			}
		}
	}
	t.Logf("%d jobs, %d workers, %d samples rerun; cache %d hits, %d misses", jobs, len(logs), steps, st.Hits, st.Misses)
}

// TestLRStepSteadyStateAllocs is the LR sample loop's allocation
// contract: on a warmed aggregator over an in-process schools-50k
// service, a Step allocates at most one object per query it issues
// (the oracle's answer) plus stepAllocSlack, which covers the returned
// values and the amortized growth of the history. The chooseH levels,
// seed and region complexes, vertex, site and answer buffers and the
// confirmation set all live in a pooled scratch set.
func TestLRStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		steps          = 60
		stepAllocSlack = 8
	)
	sc := workload.USASchools(50000, 7)
	svc := lbs.NewService(sc.DB, lbs.Options{K: 10})
	agg := NewLRAggregator(svc, DefaultLROptions(1))
	count := aggsOf(t, CountSpec())
	ctx := context.Background()
	if _, err := agg.Run(ctx, count, WithMaxSamples(50)); err != nil {
		t.Fatal(err)
	}
	// Collect first, so no cycle lands in the measured steps and empties
	// the pools, then take one Step to put the scratch set back in use.
	runtime.GC()
	if _, err := agg.Step(ctx, false); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	q0 := svc.QueryCount()
	runtime.ReadMemStats(&before)
	for range steps {
		if _, err := agg.Step(ctx, false); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perStep := float64(after.Mallocs-before.Mallocs) / steps
	queries := float64(svc.QueryCount()-q0) / steps
	t.Logf("%.1f allocs, %.0f B and %.1f queries per Step", perStep,
		float64(after.TotalAlloc-before.TotalAlloc)/steps, queries)
	if perStep > queries+stepAllocSlack {
		t.Errorf("%.1f allocs per Step, want at most %.1f queries + %d", perStep, queries, stepAllocSlack)
	}
}
