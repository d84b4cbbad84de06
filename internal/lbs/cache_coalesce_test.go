package lbs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
)

// gatedQuerier is a controllable upstream for the coalescing tests:
// every LR fetch announces itself on started, then blocks until
// release is closed (or its ctx ends) and answers from the wrapped
// service — or fails with err, alongside the answer when err is a
// partial-answer annotation.
type gatedQuerier struct {
	Querier
	started chan struct{}
	release chan struct{}
	err     error
	calls   atomic.Int64 // upstream calls (a batch is one call)
	points  atomic.Int64 // upstream points
}

func newGated(t *testing.T) *gatedQuerier {
	return &gatedQuerier{
		Querier: NewService(testDB(t), Options{K: 2}),
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (g *gatedQuerier) wait(ctx context.Context, n int) error {
	g.calls.Add(1)
	g.points.Add(int64(n))
	g.started <- struct{}{}
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gatedQuerier) QueryLR(ctx context.Context, q geom.Point, f Filter) ([]LRRecord, error) {
	if err := g.wait(ctx, 1); err != nil {
		return nil, err
	}
	recs, err := g.Querier.QueryLR(ctx, q, f)
	if err == nil && g.err != nil {
		if IsPartial(g.err) {
			return recs, g.err
		}
		return nil, g.err
	}
	return recs, err
}

func (g *gatedQuerier) QueryLRBatch(ctx context.Context, pts []geom.Point, f Filter) ([][]LRRecord, error) {
	if err := g.wait(ctx, len(pts)); err != nil {
		return nil, err
	}
	return g.Querier.QueryLRBatch(ctx, pts, f)
}

// letWaitersJoin gives goroutines about to block on an in-flight fetch
// time to reach it. Every assertion holds either way (a late caller
// finds the memoized answer, or leads a fetch that fails the same
// way); the pause only makes the waiting path the one exercised.
func letWaitersJoin() { time.Sleep(20 * time.Millisecond) }

// TestCacheCoalescesConcurrentMisses: concurrent misses on one key go
// upstream once; every caller gets the leader's answer, and only the
// leader is charged.
func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	g := newGated(t)
	c := NewCachedOracle(g, CacheOptions{})
	ctx := context.Background()
	p := geom.Pt(5, 5)
	const callers = 8
	var wg sync.WaitGroup
	answers := make([][]LRRecord, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], errs[i] = c.QueryLR(ctx, p, nil)
		}(i)
	}
	<-g.started
	letWaitersJoin()
	close(g.release)
	wg.Wait()
	for i := range answers {
		if errs[i] != nil || len(answers[i]) != 2 || answers[i][0].ID != answers[0][0].ID {
			t.Fatalf("caller %d: %v %v", i, answers[i], errs[i])
		}
	}
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("upstream calls = %d, want 1", n)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits", st, callers-1)
	}
}

// TestCacheCoalescesBatchDuplicates: a key repeated inside one batch
// is fetched once, and a batch key another caller is already fetching
// is waited for instead of forwarded.
func TestCacheCoalescesBatchDuplicates(t *testing.T) {
	g := newGated(t)
	close(g.release)
	c := NewCachedOracle(g, CacheOptions{})
	ctx := context.Background()
	p, q := geom.Pt(5, 5), geom.Pt(1, 1)
	out, err := c.QueryLRBatch(ctx, []geom.Point{p, q, p, p}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.points.Load() != 2 {
		t.Fatalf("upstream points = %d, want 2", g.points.Load())
	}
	for _, i := range []int{2, 3} {
		if len(out[i]) != len(out[0]) || out[i][0].ID != out[0][0].ID {
			t.Fatalf("duplicate position %d diverged: %v vs %v", i, out[i], out[0])
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 misses / 2 hits", st)
	}

	// A batch overlapping a single query in flight waits for it.
	g2 := newGated(t)
	c2 := NewCachedOracle(g2, CacheOptions{})
	done := make(chan error)
	go func() {
		_, err := c2.QueryLR(ctx, p, nil)
		done <- err
	}()
	<-g2.started
	batch := make(chan [][]LRRecord)
	go func() {
		out, err := c2.QueryLRBatch(ctx, []geom.Point{p, q}, nil)
		if err != nil {
			t.Error(err)
		}
		batch <- out
	}()
	<-g2.started // the batch forwards q alone
	close(g2.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if out := <-batch; len(out[0]) == 0 || len(out[1]) == 0 {
		t.Fatalf("batch answers missing: %v", out)
	}
	if g2.points.Load() != 2 {
		t.Fatalf("upstream points = %d, want 2", g2.points.Load())
	}
}

// TestCacheCoalesceSharesError: waiters share the leader's error,
// nothing is charged or memoized for it, and the next lookup fetches
// again.
func TestCacheCoalesceSharesError(t *testing.T) {
	g := newGated(t)
	boom := errors.New("boom")
	g.err = boom
	c := NewCachedOracle(g, CacheOptions{})
	ctx := context.Background()
	p := geom.Pt(5, 5)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.QueryLR(ctx, p, nil)
		}(i)
	}
	<-g.started
	letWaitersJoin()
	close(g.release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want boom", i, err)
		}
	}
	if st := c.Stats(); st.Misses != 0 || st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want nothing counted or stored", st)
	}
	before := g.calls.Load()
	g.err = nil
	if _, err := c.QueryLR(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	if g.calls.Load() != before+1 {
		t.Fatalf("error was memoized: no re-fetch")
	}
}

// TestCacheCoalescePartialNotMemoized: a degraded answer reaches the
// waiters with its annotation but is never stored.
func TestCacheCoalescePartialNotMemoized(t *testing.T) {
	g := newGated(t)
	g.err = &PartialError{Degraded: 1}
	c := NewCachedOracle(g, CacheOptions{})
	ctx := context.Background()
	p := geom.Pt(5, 5)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs, err := c.QueryLR(ctx, p, nil)
			if !IsPartial(err) || len(recs) == 0 {
				t.Errorf("got %v, %v; want records with a partial annotation", recs, err)
			}
		}()
	}
	<-g.started
	letWaitersJoin()
	close(g.release)
	wg.Wait()
	if st := c.Stats(); st.Bypasses != 3 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want 3 bypasses and nothing stored", st)
	}
}

// TestCacheCoalesceLeaderCancelRetries: a waiter does not inherit the
// leader's cancellation; it fetches the key itself.
func TestCacheCoalesceLeaderCancelRetries(t *testing.T) {
	g := newGated(t)
	c := NewCachedOracle(g, CacheOptions{})
	p := geom.Pt(5, 5)
	lctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error)
	go func() {
		_, err := c.QueryLR(lctx, p, nil)
		leader <- err
	}()
	<-g.started
	waiter := make(chan error)
	go func() {
		recs, err := c.QueryLR(context.Background(), p, nil)
		if err == nil && len(recs) == 0 {
			err = errors.New("empty answer")
		}
		waiter <- err
	}()
	letWaitersJoin()
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want canceled", err)
	}
	<-g.started // the waiter now leads its own fetch
	close(g.release)
	if err := <-waiter; err != nil {
		t.Fatalf("waiter err = %v", err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the waiter's fetch memoized", st)
	}
}

// TestCacheCoalesceInvalidateDetaches: an invalidation overlapping a
// fetch in flight detaches it — later lookups fetch afresh instead of
// waiting for an answer that may predate the mutation, and the
// detached answer is never memoized.
func TestCacheCoalesceInvalidateDetaches(t *testing.T) {
	g := newGated(t)
	c := NewCachedOracle(g, CacheOptions{})
	ctx := context.Background()
	p := geom.Pt(5, 5)
	first := make(chan error)
	go func() {
		_, err := c.QueryLR(ctx, p, nil)
		first <- err
	}()
	<-g.started
	c.Invalidate(geom.NewRect(geom.Pt(4, 4), geom.Pt(6, 6)))
	second := make(chan error)
	go func() {
		_, err := c.QueryLR(ctx, p, nil)
		second <- err
	}()
	<-g.started // a fresh fetch, not a wait on the detached one
	close(g.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses and 1 entry", st)
	}
}
