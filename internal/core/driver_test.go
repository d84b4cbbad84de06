package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// TestDriverCancellationPartialResults cancels the run mid-flight and
// expects the Results of the samples completed so far, not an error.
func TestDriverCancellationPartialResults(t *testing.T) {
	svc, db := smallService(t, 200, 5, 9)
	agg := NewLRAggregator(svc, DefaultLROptions(11))
	ctx, cancel := context.WithCancel(context.Background())
	const stopAfter = 8
	res, err := agg.Run(ctx, aggsOf(t, CountSpec()),
		WithMaxSamples(400),
		WithProgress(func(pts []TracePoint) {
			if pts[0].Samples >= stopAfter {
				cancel()
			}
		}))
	if err != nil {
		t.Fatalf("canceled run should return partial results, got error: %v", err)
	}
	if res[0].Samples < stopAfter || res[0].Samples >= 400 {
		t.Fatalf("samples = %d, want in [%d, 400)", res[0].Samples, stopAfter)
	}
	if res[0].Queries == 0 || len(res[0].Trace) != res[0].Samples {
		t.Errorf("partial result accounting: %+v", res[0])
	}
	// The partial estimate is still a sane (unbiased) estimate.
	if res[0].Estimate <= 0 || res[0].Estimate > 20*float64(db.Len()) {
		t.Errorf("partial estimate out of range: %v", res[0].Estimate)
	}
}

// TestDriverCanceledBeforeStart: with zero completed samples the run
// has nothing to report and surfaces the context error.
func TestDriverCanceledBeforeStart(t *testing.T) {
	svc, _ := smallService(t, 50, 5, 10)
	agg := NewLRAggregator(svc, DefaultLROptions(12))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := agg.Run(ctx, aggsOf(t, CountSpec()), WithMaxSamples(5)); err == nil {
		t.Fatal("pre-canceled run returned no error")
	}
}

// TestDriverParallelSharedService runs eight workers against one
// shared Service (exercised under -race by `make test`) and checks
// the merged accounting and estimate quality.
func TestDriverParallelSharedService(t *testing.T) {
	svc, db := smallService(t, 300, 5, 21)
	agg := NewLRAggregator(svc, DefaultLROptions(31))
	const samples = 200
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec(), SumSpec("weight")),
		WithMaxSamples(samples), WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples != samples {
		t.Fatalf("samples = %d, want %d", res[0].Samples, samples)
	}
	if len(res[0].Trace) != samples {
		t.Errorf("trace length = %d, want %d", len(res[0].Trace), samples)
	}
	if res[0].Queries != svc.QueryCount() {
		t.Errorf("queries = %d, service counted %d", res[0].Queries, svc.QueryCount())
	}
	checkZ(t, "parallel COUNT", res[0], float64(db.Len()), 5)
}

// TestDriverParallelLNR exercises the fork path of the rank-only
// estimator under concurrency.
func TestDriverParallelLNR(t *testing.T) {
	svc, db := smallService(t, 150, 5, 33)
	agg := NewLNRAggregator(svc, LNROptions{Seed: 7})
	// Which fork draws which sample depends on scheduling, so the run
	// is not seed-deterministic; 48 samples of the heavy-tailed LNR
	// weight distribution flaked past the z-bound every few dozen
	// runs. 128 samples keeps the test fast while calming the tail.
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()),
		WithMaxSamples(128), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples != 128 {
		t.Fatalf("samples = %d, want 128", res[0].Samples)
	}
	checkZ(t, "parallel LNR COUNT", res[0], float64(db.Len()), 6)
}

// TestDriverTargetCI stops once the confidence target is met, well
// before the sample cap.
func TestDriverTargetCI(t *testing.T) {
	svc, _ := smallService(t, 200, 5, 14)
	agg := NewLRAggregator(svc, DefaultLROptions(15))
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()),
		WithMaxSamples(100000), WithTargetCI(0.5))
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Samples < ciMinSamples {
		t.Fatalf("stopped before the CI minimum: %d samples", r.Samples)
	}
	if r.Samples >= 100000 {
		t.Fatal("CI target never triggered")
	}
	if r.CI95 > 0.5*math.Abs(r.Estimate) {
		t.Errorf("stopped with CI %v above target (estimate %v)", r.CI95, r.Estimate)
	}
}

// TestDriverProgressStreaming checks the per-sample callback cadence
// and monotonic sample numbering in serial mode.
func TestDriverProgressStreaming(t *testing.T) {
	svc, _ := smallService(t, 100, 5, 16)
	agg := NewNNOBaseline(svc, NNOOptions{Seed: 3})
	var mu sync.Mutex
	var seen []int
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()),
		WithMaxSamples(25),
		WithProgress(func(pts []TracePoint) {
			mu.Lock()
			seen = append(seen, pts[0].Samples)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res[0].Samples {
		t.Fatalf("progress calls = %d, samples = %d", len(seen), res[0].Samples)
	}
	for i, s := range seen {
		if s != i+1 {
			t.Fatalf("progress sample numbering broken at %d: %v", i, s)
		}
	}
}

// slowOracle injects a fixed per-query latency in front of an Oracle,
// modelling a remote LBS; it honors ctx while sleeping, so cancelled
// runs abort the in-flight query immediately.
type slowOracle struct {
	Oracle
	delay time.Duration
}

func (o slowOracle) wait(ctx context.Context) error {
	timer := time.NewTimer(o.delay)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (o slowOracle) QueryLR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LRRecord, error) {
	if err := o.wait(ctx); err != nil {
		return nil, err
	}
	return o.Oracle.QueryLR(ctx, q, f)
}

func (o slowOracle) QueryLNR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LNRRecord, error) {
	if err := o.wait(ctx); err != nil {
		return nil, err
	}
	return o.Oracle.QueryLNR(ctx, q, f)
}

// timeoutOracle fails every query after the first few with a
// DeadlineExceeded-flavored transport error (as net/http client
// timeouts do) while the run's own context stays live.
type timeoutOracle struct {
	Oracle
	failAfter int
	n         int
}

func (o *timeoutOracle) QueryLR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LRRecord, error) {
	o.n++
	if o.n > o.failAfter {
		return nil, context.DeadlineExceeded
	}
	return o.Oracle.QueryLR(ctx, q, f)
}

// TestDriverTransportTimeoutIsFatal: a per-request timeout from the
// transport must surface as a run error — only the run context's own
// cancellation ends a run gracefully with partial results.
func TestDriverTransportTimeoutIsFatal(t *testing.T) {
	svc, _ := smallService(t, 100, 5, 23)
	agg := NewLRAggregator(&timeoutOracle{Oracle: svc, failAfter: 50}, DefaultLROptions(24))
	_, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(100))
	if err == nil {
		t.Fatal("transport timeout was swallowed as a graceful stop")
	}
}

// TestDriverCancelInterruptsLatentQuery: cancellation must cut a run
// blocked inside a slow query, not wait for the sample to finish.
func TestDriverCancelInterruptsLatentQuery(t *testing.T) {
	svc, _ := smallService(t, 100, 5, 19)
	agg := NewLRAggregator(slowOracle{Oracle: svc, delay: 50 * time.Millisecond}, DefaultLROptions(20))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	count := aggsOf(t, CountSpec())
	start := time.Now()
	go func() {
		defer close(done)
		_, _ = agg.Run(ctx, count, WithMaxSamples(1000))
	}()
	time.Sleep(120 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("run did not stop promptly after cancellation")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("cancellation latency too high")
	}
}

// TestParallelValueOnCollector: a parallel run calls Value only on
// the goroutine that folds the samples, never from its workers, so an
// aggregate whose Value bumps an unguarded counter is race-free (make
// stress runs this under -race).
func TestParallelValueOnCollector(t *testing.T) {
	svc, _ := smallService(t, 200, 5, 17)
	for _, est := range []Estimator{
		NewLRAggregator(svc, DefaultLROptions(5)),
		NewLNRAggregator(svc, LNROptions{Seed: 5}),
		NewNNOBaseline(svc, NNOOptions{Seed: 5}),
	} {
		calls := 0
		count := Aggregate{Name: "count", Value: func(Record) float64 { calls++; return 1 }}
		res, err := Run(context.Background(), est, []Aggregate{count}, WithParallelism(4), WithMaxSamples(40))
		if err != nil {
			t.Fatalf("%T: %v", est, err)
		}
		if calls == 0 || res[0].Samples != 40 {
			t.Errorf("%T: %d Value calls over %d samples", est, calls, res[0].Samples)
		}
	}
}
