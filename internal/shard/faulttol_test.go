package shard

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// faultedRouter builds an n-shard federation with a fault injector in
// front of every member, returning the router and the injectors (in
// shard order) for mid-run Kill/Revive.
func faultedRouter(t *testing.T, db *lbs.Database, opts lbs.Options, n int, res Resilience, spec func(i int) faults.Spec) (*Router, []*faults.Injector) {
	t.Helper()
	inj := make([]*faults.Injector, n)
	router, err := FromPartsWrapped(Partition(db, n), opts, res, func(i int, q lbs.Querier) lbs.Querier {
		inj[i] = faults.New(q, spec(i))
		return inj[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	return router, inj
}

// interiorPoint returns a point strictly inside the shard's region, so
// pickOwner resolves to that shard whenever its breaker is closed.
func interiorPoint(db *lbs.Database) geom.Point {
	b := db.Bounds()
	return geom.Pt(b.Min.X+b.Width()/2, b.Min.Y+b.Height()/2)
}

// TestFederatedBitIdenticalUnderTransients is the recovery property
// the retry layer is pinned by: over a fully-recovering fault schedule
// (every n-th member call fails transiently, the immediate retry
// succeeds), a federated run with retries enabled is bit-identical to
// the clean single-service run — same answers on serial and batch
// paths of both views, no partial annotations, and the same logical
// meter count.
func TestFederatedBitIdenticalUnderTransients(t *testing.T) {
	db := workload.USASchools(300, 71).DB
	opts := lbs.Options{K: 4}
	ctx := context.Background()
	for _, every := range []int64{2, 3, 7} {
		for _, n := range []int{2, 4} {
			single := lbs.NewService(db, opts)
			res := Resilience{}
			res.MaxRetries = 2
			router, _ := faultedRouter(t, db, opts, n, res, func(i int) faults.Spec {
				return faults.Spec{Seed: int64(i), TransientEvery: every}
			})
			rng := rand.New(rand.NewSource(every*100 + int64(n)))
			pts := testPoints(rng, db, Partition(db, n), 25)
			for i, q := range pts {
				want, err1 := single.QueryLR(ctx, q, nil)
				got, err2 := router.QueryLR(ctx, q, nil)
				if err1 != nil || err2 != nil {
					t.Fatalf("every=%d n=%d point %d: errs %v %v", every, n, i, err1, err2)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("every=%d n=%d point %d: LR mismatch under recovered transients", every, n, i)
				}
			}
			wantB, _ := single.QueryLRBatch(ctx, pts, nil)
			gotB, err := router.QueryLRBatch(ctx, pts, nil)
			if err != nil {
				t.Fatalf("every=%d n=%d: batch err %v", every, n, err)
			}
			if !reflect.DeepEqual(wantB, gotB) {
				t.Fatalf("every=%d n=%d: LR batch mismatch under recovered transients", every, n)
			}
			if router.QueryCount() != single.QueryCount() {
				t.Fatalf("every=%d n=%d: logical meter %d != clean %d — retries leaked budget",
					every, n, router.QueryCount(), single.QueryCount())
			}
			st := router.Stats()
			if st.Retries == 0 {
				t.Fatalf("every=%d n=%d: no retries recorded — the schedule injected nothing", every, n)
			}
			if st.Partial != 0 || st.Dropped != 0 {
				t.Fatalf("every=%d n=%d: degraded answers (%d partial, %d dropped) under a fully-recovering schedule",
					every, n, st.Partial, st.Dropped)
			}
		}
	}
}

// wedged blocks every query until the caller's context dies — the
// pathological member ShardTimeout exists for.
type wedged struct{ inner lbs.Querier }

func (w *wedged) Bounds() geom.Rect { return w.inner.Bounds() }
func (w *wedged) K() int            { return w.inner.K() }
func (w *wedged) QueryCount() int64 { return w.inner.QueryCount() }
func (w *wedged) QueryLR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LRRecord, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (w *wedged) QueryLNR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LNRRecord, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (w *wedged) QueryLRBatch(ctx context.Context, pts []geom.Point, f lbs.Filter) ([][]lbs.LRRecord, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (w *wedged) QueryLNRBatch(ctx context.Context, pts []geom.Point, f lbs.Filter) ([][]lbs.LNRRecord, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestShardTimeoutBoundsWedgedMember pins the wedge guarantee: a
// member that never answers costs at most ShardTimeout. A wedged
// non-owner degrades the answer; a wedged owner fails crisply with
// ErrOwnerDown wrapping ErrShardTimeout. Without retries the whole
// query stays near one deadline, nowhere near the unbounded hang the
// parent context would allow.
func TestShardTimeoutBoundsWedgedMember(t *testing.T) {
	db := workload.USASchools(40, 81).DB
	parts := Partition(db, 2)
	// K above the per-shard tuple count: the owner can never fill the
	// candidate set, the fan-out ball stays unbounded, and the wedged
	// sibling is always relevant.
	opts := lbs.Options{K: 25}
	mk := func() *Router {
		svc0 := lbs.NewService(parts[0], lbs.Options{K: 25})
		svc1 := lbs.NewService(parts[1], lbs.Options{K: 25})
		res := Resilience{}
		res.ShardTimeout = 75 * time.Millisecond
		router, err := NewRouter([]Shard{
			{Querier: svc0, Region: parts[0].Bounds()},
			{Querier: &wedged{inner: svc1}, Region: parts[1].Bounds()},
		}, opts, res)
		if err != nil {
			t.Fatal(err)
		}
		return router
	}
	ctx := context.Background()

	// Wedged non-owner: answered from the survivor, marked partial,
	// inside the deadline (generous slack for slow CI machines).
	router := mk()
	start := time.Now()
	recs, err := router.QueryLR(ctx, interiorPoint(parts[0]), nil)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("wedged non-owner stalled the query for %v", elapsed)
	}
	pe, ok := lbs.AsPartial(err)
	if !ok {
		t.Fatalf("want partial annotation, got %v", err)
	}
	if len(recs) == 0 || pe.Missing == 0 {
		t.Fatalf("degraded answer: %d recs, %+v", len(recs), pe)
	}
	if !errors.Is(err, ErrShardTimeout) {
		t.Fatalf("annotation should carry the timeout cause, got %v", err)
	}

	// Wedged owner: crisp typed failure, same bound, unit refunded.
	router = mk()
	start = time.Now()
	_, err = router.QueryLR(ctx, interiorPoint(parts[1]), nil)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("wedged owner stalled the query for %v", elapsed)
	}
	if !errors.Is(err, ErrOwnerDown) || !errors.Is(err, ErrShardTimeout) {
		t.Fatalf("want OwnerDown wrapping ShardTimeout, got %v", err)
	}
	if c := router.QueryCount(); c != 0 {
		t.Fatalf("failed query left %d units charged", c)
	}

	// A deadline timeout must not be retried (the breaker's job, not
	// the retry loop's).
	if lbs.IsTransient(ErrShardTimeout) {
		t.Fatal("ErrShardTimeout classified transient")
	}
}

// stuck wraps an in-process member without forwarding lbs.NonBlocking
// and ignores its context: every query blocks until release is closed.
// It is the member the inline path must never run on the caller's
// goroutine.
type stuck struct {
	lbs.Querier
	release chan struct{}
}

func (s *stuck) QueryLR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LRRecord, error) {
	<-s.release
	return s.Querier.QueryLR(ctx, q, f)
}

// TestDeadlineBoundsUnmarkedMemberIgnoringContext pins that only
// lbs.NonBlocking members skip the ShardTimeout deadline: a member
// behind a wrapper that does not forward the marker, and that ignores
// its context, still costs at most the deadline. As a non-owner it
// degrades the answer; as the owner it fails with ErrOwnerDown
// wrapping ErrShardTimeout. Its sibling, a bare service, is a marked
// member.
func TestDeadlineBoundsUnmarkedMemberIgnoringContext(t *testing.T) {
	db := workload.USASchools(40, 81).DB
	parts := Partition(db, 2)
	// K above the per-shard tuple count keeps the stuck sibling
	// relevant to every query (see TestShardTimeoutBoundsWedgedMember).
	opts := lbs.Options{K: 25}
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	mk := func() *Router {
		res := Resilience{}
		res.ShardTimeout = 75 * time.Millisecond
		router, err := NewRouter([]Shard{
			{Querier: lbs.NewService(parts[0], opts), Region: parts[0].Bounds()},
			{Querier: &stuck{Querier: lbs.NewService(parts[1], opts), release: release}, Region: parts[1].Bounds()},
		}, opts, res)
		if err != nil {
			t.Fatal(err)
		}
		return router
	}
	ctx := context.Background()
	const limit = 2 * time.Second // the deadline plus generous CI slack

	start := time.Now()
	recs, err := mk().QueryLR(ctx, interiorPoint(parts[0]), nil)
	if elapsed := time.Since(start); elapsed > limit {
		t.Fatalf("stuck non-owner stalled the query for %v", elapsed)
	}
	if pe, ok := lbs.AsPartial(err); !ok || len(recs) == 0 || pe.Missing == 0 || !errors.Is(err, ErrShardTimeout) {
		t.Fatalf("want a partial answer timed out on the stuck member, got %d recs, %v", len(recs), err)
	}

	start = time.Now()
	_, err = mk().QueryLR(ctx, interiorPoint(parts[1]), nil)
	if elapsed := time.Since(start); elapsed > limit {
		t.Fatalf("stuck owner stalled the query for %v", elapsed)
	}
	if !errors.Is(err, ErrOwnerDown) || !errors.Is(err, ErrShardTimeout) {
		t.Fatalf("want OwnerDown wrapping ShardTimeout, got %v", err)
	}
}

// TestBreakerLifecycle drives one member through the full circuit:
// closed → (kill + failed call) open → routed-around degraded answers
// → half-open after the cooldown → (revive + successful probe) closed
// and bit-identical answers again.
func TestBreakerLifecycle(t *testing.T) {
	db := workload.USASchools(60, 91).DB
	opts := lbs.Options{K: 30} // unbounded ball: every member always relevant
	res := Resilience{}
	res.BreakerThreshold = 1
	res.BreakerCooldown = 50 * time.Millisecond
	router, inj := faultedRouter(t, db, opts, 2, res, func(i int) faults.Spec { return faults.Spec{Seed: int64(i)} })
	parts := Partition(db, 2)
	ctx := context.Background()
	deadPt, livePt := interiorPoint(parts[1]), interiorPoint(parts[0])

	// Closed and clean.
	if st := router.Stats(); st.Shards[1].State != BreakerClosed {
		t.Fatalf("initial state %s", st.Shards[1].State)
	}
	if _, err := router.QueryLR(ctx, deadPt, nil); err != nil {
		t.Fatalf("clean query: %v", err)
	}

	// Kill shard 1. Its owned query fails crisply — and that failure
	// trips the breaker at threshold 1.
	inj[1].Kill()
	if _, err := router.QueryLR(ctx, deadPt, nil); !errors.Is(err, ErrOwnerDown) {
		t.Fatalf("killed owner: want ErrOwnerDown, got %v", err)
	}
	if st := router.Stats(); st.Shards[1].State != BreakerOpen {
		t.Fatalf("after owner failure: state %s, want open", st.Shards[1].State)
	}

	// Open breaker: ownership of the dead region moves to the healthy
	// member and the skipped shard marks the answer partial.
	recs, err := router.QueryLR(ctx, deadPt, nil)
	if !lbs.IsPartial(err) || len(recs) == 0 {
		t.Fatalf("routed-around query: recs=%d err=%v, want degraded answer", len(recs), err)
	}
	if router.DegradedCount() == 0 {
		t.Fatal("degraded answers not counted")
	}

	// Cooldown elapses with no call: the state is observably half-open.
	time.Sleep(res.BreakerCooldown + 20*time.Millisecond)
	if st := router.Stats(); st.Shards[1].State != BreakerHalfOpen {
		t.Fatalf("after cooldown: state %s, want half-open", st.Shards[1].State)
	}

	// Revive and query: the half-open member gets a single probe, the
	// probe succeeds, the breaker closes, and the answer is already
	// complete (the probe's candidates merge in).
	inj[1].Revive()
	if recs, err := router.QueryLR(ctx, livePt, nil); err != nil || len(recs) == 0 {
		t.Fatalf("probe query: recs=%d err=%v", len(recs), err)
	}
	if st := router.Stats(); st.Shards[1].State != BreakerClosed {
		t.Fatalf("after successful probe: state %s, want closed", st.Shards[1].State)
	}
	if st := router.Stats(); st.Shards[1].Opens == 0 || st.Shards[1].Failures == 0 {
		t.Fatalf("health counters empty: %+v", router.Stats().Shards[1])
	}

	// Fully recovered: answers match the clean single service again.
	single := lbs.NewService(db, opts)
	want, _ := single.QueryLR(ctx, deadPt, nil)
	got, err := router.QueryLR(ctx, deadPt, nil)
	if err != nil || !reflect.DeepEqual(want, got) {
		t.Fatalf("post-recovery answer diverged: err=%v", err)
	}
}

// TestAllBreakersOpen pins the no-healthy-member case: every breaker
// open → ErrNoShards, crisply, with nothing charged.
func TestAllBreakersOpen(t *testing.T) {
	db := workload.USASchools(40, 101).DB
	res := Resilience{}
	res.BreakerThreshold = 1
	res.BreakerCooldown = time.Hour
	router, inj := faultedRouter(t, db, lbs.Options{K: 3}, 2, res, func(i int) faults.Spec { return faults.Spec{Seed: int64(i)} })
	parts := Partition(db, 2)
	ctx := context.Background()
	inj[0].Kill()
	inj[1].Kill()
	for _, p := range []geom.Point{interiorPoint(parts[0]), interiorPoint(parts[1])} {
		router.QueryLR(ctx, p, nil) // trip each breaker via its owner failure
	}
	if _, err := router.QueryLR(ctx, interiorPoint(parts[0]), nil); !errors.Is(err, ErrNoShards) {
		t.Fatalf("want ErrNoShards, got %v", err)
	}
	if c := router.QueryCount(); c != 0 {
		t.Fatalf("failed queries left %d units charged", c)
	}
}

// TestAllBreakersOpenRecovers pins that a federation whose every
// breaker opened comes back: once a cooldown elapses, the nearest
// member is admitted as a probe owner. While the members stay dead the
// probe fails crisply (ErrOwnerDown, not ErrNoShards) and re-opens the
// breaker; after they revive, the next query — point or batch —
// closes every breaker and answers exactly like a single service.
func TestAllBreakersOpenRecovers(t *testing.T) {
	db := workload.USASchools(40, 101).DB
	opts := lbs.Options{K: 3}
	single := lbs.NewService(db, opts)
	ctx := context.Background()
	for _, n := range []int{1, 2} {
		for _, batch := range []bool{false, true} {
			res := Resilience{}
			res.BreakerThreshold = 1
			res.BreakerCooldown = 30 * time.Millisecond
			router, inj := faultedRouter(t, db, opts, n, res, func(i int) faults.Spec { return faults.Spec{Seed: int64(i)} })
			var pts []geom.Point
			for _, p := range Partition(db, n) {
				pts = append(pts, interiorPoint(p))
			}
			for _, in := range inj {
				in.Kill()
			}
			for _, p := range pts {
				router.QueryLR(ctx, p, nil) // trip each breaker via its owner failure
			}
			for i, sh := range router.Stats().Shards {
				if sh.State == BreakerClosed {
					t.Fatalf("n=%d: shard %d still closed after its owner failure", n, i)
				}
			}

			time.Sleep(100 * time.Millisecond)
			var err error
			if batch {
				_, err = router.QueryLRBatch(ctx, pts, nil)
			} else {
				_, err = router.QueryLR(ctx, pts[0], nil)
			}
			if !errors.Is(err, ErrOwnerDown) {
				t.Fatalf("n=%d batch=%v: probe owner still dead: want ErrOwnerDown, got %v", n, batch, err)
			}

			for _, in := range inj {
				in.Revive()
			}
			time.Sleep(100 * time.Millisecond)
			var got [][]lbs.LRRecord
			if batch {
				if got, err = router.QueryLRBatch(ctx, pts, nil); err != nil {
					t.Fatalf("n=%d batch after revival: %v", n, err)
				}
			} else {
				for _, p := range pts {
					recs, err := router.QueryLR(ctx, p, nil)
					if err != nil {
						t.Fatalf("n=%d point after revival: %v", n, err)
					}
					got = append(got, recs)
				}
			}
			for i, p := range pts {
				want, _ := single.QueryLR(ctx, p, nil)
				if !reflect.DeepEqual(want, got[i]) {
					t.Fatalf("n=%d batch=%v: recovered answer %d diverges from the single service", n, batch, i)
				}
			}
			for i, sh := range router.Stats().Shards {
				if sh.State != BreakerClosed {
					t.Fatalf("n=%d batch=%v: shard %d %s after recovery, want closed", n, batch, i, sh.State)
				}
			}
			if c := router.QueryCount(); c != int64(len(pts)) {
				t.Fatalf("n=%d batch=%v: meter %d, want %d answered queries", n, batch, c, len(pts))
			}
		}
	}
}

// TestBatchRefundsOnlyDroppedPositions pins the batch refund fix: when
// one owner shard is down, only the positions it owned are refunded —
// answered (including degraded) positions keep their charge, exactly
// one unit per non-nil answer.
func TestBatchRefundsOnlyDroppedPositions(t *testing.T) {
	db := workload.USASchools(120, 111).DB
	res := Resilience{} // breaker off: failures keep failing
	router, inj := faultedRouter(t, db, lbs.Options{K: 4}, 2, res, func(i int) faults.Spec { return faults.Spec{Seed: int64(i)} })
	parts := Partition(db, 2)
	ctx := context.Background()
	inj[1].Kill()

	pts := []geom.Point{
		interiorPoint(parts[0]), interiorPoint(parts[1]),
		interiorPoint(parts[0]), interiorPoint(parts[1]), interiorPoint(parts[0]),
	}
	out, err := router.QueryLRBatch(ctx, pts, nil)
	pe, ok := lbs.AsPartial(err)
	if !ok {
		t.Fatalf("want partial annotation, got %v", err)
	}
	if !errors.Is(err, ErrOwnerDown) {
		t.Fatalf("annotation should carry the owner failure, got %v", err)
	}
	var answered int64
	for i, recs := range out {
		ownedByDead := i%2 == 1
		if ownedByDead && recs != nil {
			t.Fatalf("position %d owned by the dead shard answered", i)
		}
		if !ownedByDead && recs == nil {
			t.Fatalf("position %d owned by the live shard dropped", i)
		}
		if recs != nil {
			answered++
		}
	}
	if pe.Dropped != 2 {
		t.Fatalf("dropped=%d, want 2: %+v", pe.Dropped, pe)
	}
	if c := router.QueryCount(); c != answered {
		t.Fatalf("meter %d != answered positions %d — refund wrong", c, answered)
	}
	if st := router.Stats(); st.Dropped != 2 {
		t.Fatalf("stats dropped=%d, want 2", st.Dropped)
	}
}

// TestConcurrentDegradedBatchesMeterExactly hammers the refund path
// from many goroutines while one shard is down (run under -race by
// `make test`): across every concurrent batch, the logical meter must
// end exactly equal to the number of positions actually answered —
// dropped positions refunded, degraded ones charged, no double refund
// and no leak, regardless of interleaving.
func TestConcurrentDegradedBatchesMeterExactly(t *testing.T) {
	db := workload.USASchools(300, 121).DB
	res := Resilience{} // breaker off: the dead shard keeps failing every batch
	router, inj := faultedRouter(t, db, lbs.Options{K: 4}, 4, res, func(i int) faults.Spec { return faults.Spec{Seed: int64(i)} })
	inj[2].Kill()
	ctx := context.Background()
	b := db.Bounds()

	const workers = 8
	const batchesPerWorker = 12
	const batchSize = 9
	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < batchesPerWorker; i++ {
				pts := make([]geom.Point, batchSize)
				for j := range pts {
					pts[j] = geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
				}
				out, err := router.QueryLRBatch(ctx, pts, nil)
				if err != nil && !lbs.IsPartial(err) {
					t.Errorf("worker %d: %v", seed, err)
					return
				}
				for _, recs := range out {
					if recs != nil {
						answered.Add(1)
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if c, a := router.QueryCount(), answered.Load(); c != a {
		t.Fatalf("meter %d != answered positions %d under concurrent partial failures", c, a)
	}
	st := router.Stats()
	if st.Dropped == 0 || st.Partial == 0 {
		t.Fatalf("the dead shard injected nothing: %+v", st)
	}
}

// TestBatchMissingCountsOnlyNeededMembers pins PartialError.Missing on
// the batch path: a member whose breaker refuses admission counts as
// missing only when some point's ball reaches it, as on the point
// path. A batch of one point must report what QueryLR reports.
func TestBatchMissingCountsOnlyNeededMembers(t *testing.T) {
	db := workload.USASchools(400, 81).DB
	res := Resilience{BreakerThreshold: 1, BreakerCooldown: time.Hour}
	router, inj := faultedRouter(t, db, lbs.Options{K: 3}, 4, res, func(i int) faults.Spec { return faults.Spec{Seed: int64(i)} })
	parts := Partition(db, 4)
	ctx := context.Background()
	for _, si := range []int{3, 1} {
		inj[si].Kill()
		router.QueryLR(ctx, interiorPoint(parts[si]), nil) // the owner failure trips the breaker
	}
	missing := func(err error) int {
		if pe, ok := lbs.AsPartial(err); ok {
			return pe.Missing
		}
		return 0
	}
	rng := rand.New(rand.NewSource(5))
	pts := []geom.Point{geom.Pt(324.902, 1675.07)}
	for range 40 {
		pts = append(pts, geom.RandomInRect(rng, db.Bounds()))
	}
	for _, q := range pts {
		_, err := router.QueryLR(ctx, q, nil)
		_, berr := router.QueryLRBatch(ctx, []geom.Point{q}, nil)
		if got, want := missing(berr), missing(err); got != want {
			t.Errorf("at %v: QueryLRBatch reports missing = %d, QueryLR %d", q, got, want)
		}
	}
}
