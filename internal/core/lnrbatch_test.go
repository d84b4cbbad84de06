package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// probeLog is an Oracle that records every point it is asked to
// answer. It has no batch path, so an LNR aggregator over it runs the
// serial cell search.
type probeLog struct {
	Oracle
	mu    sync.Mutex
	asked map[geom.Point]int
}

func newProbeLog(o Oracle) *probeLog {
	return &probeLog{Oracle: o, asked: make(map[geom.Point]int)}
}

func (l *probeLog) note(pts ...geom.Point) {
	l.mu.Lock()
	for _, p := range pts {
		l.asked[p]++
	}
	l.mu.Unlock()
}

func (l *probeLog) QueryLNR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LNRRecord, error) {
	l.note(q)
	return l.Oracle.QueryLNR(ctx, q, filter)
}

// batchLog is a probeLog that also exposes the wrapped oracle's batch
// path, so an LNR aggregator over it batches its probes.
type batchLog struct {
	*probeLog
	bo lbs.Querier
}

func newBatchLog(bo lbs.Querier) batchLog { return batchLog{newProbeLog(bo), bo} }

func (b batchLog) QueryLRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	return b.bo.QueryLRBatch(ctx, pts, filter)
}

func (b batchLog) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error) {
	b.note(pts...)
	return b.bo.QueryLNRBatch(ctx, pts, filter)
}

// lnrIdentityCase is one fixed-length LNR COUNT run. est, se and
// queries, when set, are the serial cell search's recorded outcome
// (Float64bits of the estimate and its stderr).
type lnrIdentityCase struct {
	data       string // "weibo" (WeiboChina 3000) or "cluster" (1500-tuple cluster mix)
	seed       int64
	h, samples int

	est, se uint64
	queries int64
}

func (c lnrIdentityCase) name() string { return fmt.Sprintf("%s/s%d/h%d", c.data, c.seed, c.h) }

func (c lnrIdentityCase) service() *lbs.Service {
	if c.data == "weibo" {
		return lbs.NewService(workload.WeiboChina(3000, 11).DB, lbs.Options{K: 10})
	}
	return lbs.NewService(smallService2(1500, 41), lbs.Options{K: 5})
}

// lnrIdentityCases covers both clustered scenarios at two seeds and
// H ∈ {1, 3}. The H = 1 outcomes were recorded with the serial cell
// search, before probes were batched; H = 3 runs are compared between
// the two paths only.
var lnrIdentityCases = []lnrIdentityCase{
	{data: "weibo", seed: 1, h: 1, samples: 12, est: 0x40a4aa4715defed6, se: 0x409d7f7cbe920fa0, queries: 4138},
	{data: "weibo", seed: 2, h: 1, samples: 12, est: 0x40890af3c08dc011, se: 0x406e27c9cd863109, queries: 3626},
	{data: "cluster", seed: 1, h: 1, samples: 12, est: 0x4075e9393a9a4754, se: 0x405d0cc2c2700b4d, queries: 4627},
	{data: "cluster", seed: 2, h: 1, samples: 12, est: 0x406dc74561fb3087, se: 0x4043f141e08d51d8, queries: 3690},
	{data: "weibo", seed: 1, h: 3, samples: 3},
	{data: "weibo", seed: 2, h: 3, samples: 3},
	{data: "cluster", seed: 1, h: 3, samples: 3},
	{data: "cluster", seed: 2, h: 3, samples: 3},
}

// lnrOutcome is what batching must leave unchanged.
type lnrOutcome struct {
	est, se uint64
	samples int
	queries int64
	asked   map[geom.Point]int
	stats   LNRStats
}

// runLNRLogged runs an LNR COUNT over o (a probeLog or batchLog) to
// maxSamples, or until o's budget is spent when maxSamples is 0.
func runLNRLogged(t *testing.T, o Oracle, log *probeLog, seed int64, h, maxSamples int) lnrOutcome {
	t.Helper()
	agg := NewLNRAggregator(o, LNROptions{Seed: seed, H: h})
	var opts []RunOption
	if maxSamples > 0 {
		opts = append(opts, WithMaxSamples(maxSamples))
	}
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), append(opts, WithoutTrace())...)
	if err != nil {
		t.Fatal(err)
	}
	return lnrOutcome{
		est: math.Float64bits(res[0].Estimate), se: math.Float64bits(res[0].StdErr),
		samples: res[0].Samples, queries: o.QueryCount(), asked: log.asked, stats: agg.Stats(),
	}
}

// sameLNROutcome requires the batched outcome b to equal the serial
// outcome s in everything but the number of oracle calls.
func sameLNROutcome(t *testing.T, s, b lnrOutcome) {
	t.Helper()
	if b.est != s.est || b.se != s.se || b.samples != s.samples || b.queries != s.queries {
		t.Errorf("batched est=%v se=%v samples=%d queries=%d, serial est=%v se=%v samples=%d queries=%d",
			math.Float64frombits(b.est), math.Float64frombits(b.se), b.samples, b.queries,
			math.Float64frombits(s.est), math.Float64frombits(s.se), s.samples, s.queries)
	}
	if len(b.asked) != len(s.asked) {
		t.Errorf("batched path probed %d distinct points, serial %d", len(b.asked), len(s.asked))
	}
	for p := range s.asked {
		if b.asked[p] == 0 {
			t.Errorf("serial probe %v never sent by the batched path", p)
			break
		}
	}
	bs, ss := b.stats, s.stats
	bs.RoundTrips, ss.RoundTrips = 0, 0
	if bs != ss {
		t.Errorf("stats differ beyond RoundTrips:\nbatched %+v\nserial  %+v", b.stats, s.stats)
	}
}

// TestLNRBatchedProbesIdentity: batching the cell search's probes must
// be invisible. Over the same service, the serial and batched paths
// probe the same distinct points, charge the same queries and produce
// bit-identical estimates, and the H = 1 estimates match the ones
// recorded before batching existed.
func TestLNRBatchedProbesIdentity(t *testing.T) {
	for _, c := range lnrIdentityCases {
		t.Run(c.name(), func(t *testing.T) {
			slog := newProbeLog(c.service())
			serial := runLNRLogged(t, slog, slog, c.seed, c.h, c.samples)
			blog := newBatchLog(c.service())
			batched := runLNRLogged(t, blog, blog.probeLog, c.seed, c.h, c.samples)
			sameLNROutcome(t, serial, batched)
			if serial.stats.RoundTrips != serial.queries {
				t.Errorf("serial path: %d round trips for %d queries", serial.stats.RoundTrips, serial.queries)
			}
			if 2*batched.stats.RoundTrips > serial.stats.RoundTrips {
				t.Errorf("batched path made %d round trips, serial %d: under 2× fewer",
					batched.stats.RoundTrips, serial.stats.RoundTrips)
			}
			if c.est != 0 && (serial.est != c.est || serial.se != c.se || serial.queries != c.queries) {
				t.Errorf("serial est=%v (%#x) se=%#x queries=%d, recorded est=%v (%#x) se=%#x queries=%d",
					math.Float64frombits(serial.est), serial.est, serial.se, serial.queries,
					math.Float64frombits(c.est), c.est, c.se, c.queries)
			}
		})
	}
}

// TestLNRBatchedProbesIdentitySmall is the identity check on a small
// fixture where H = 3 repairs happen, cheap enough to repeat under the
// race detector (make stress).
func TestLNRBatchedProbesIdentitySmall(t *testing.T) {
	db := smallService2(120, 883)
	for _, h := range []int{1, 3} {
		slog := newProbeLog(lbs.NewService(db, lbs.Options{K: 5}))
		serial := runLNRLogged(t, slog, slog, 5, h, 2)
		blog := newBatchLog(lbs.NewService(db, lbs.Options{K: 5}))
		batched := runLNRLogged(t, blog, blog.probeLog, 5, h, 2)
		sameLNROutcome(t, serial, batched)
		if h == 3 && batched.stats.BisectorRepair == 0 {
			t.Errorf("h=3: no bisector repairs; the fixture no longer exercises them")
		}
	}
}

// TestLNRBatchedBudgetEdge: when the service budget runs out in the
// middle of a sample, the serial and batched paths stop at the same
// sample with the same estimate and the same charged total.
func TestLNRBatchedBudgetEdge(t *testing.T) {
	db := smallService2(1500, 41)
	for _, budget := range []int64{1000, 2345} {
		t.Run(fmt.Sprint(budget), func(t *testing.T) {
			slog := newProbeLog(lbs.NewService(db, lbs.Options{K: 5, Budget: budget}))
			serial := runLNRLogged(t, slog, slog, 3, 1, 0)
			blog := newBatchLog(lbs.NewService(db, lbs.Options{K: 5, Budget: budget}))
			batched := runLNRLogged(t, blog, blog.probeLog, 3, 1, 0)
			if serial.queries != budget {
				t.Fatalf("serial run charged %d of a %d budget", serial.queries, budget)
			}
			if b, s := batched, serial; b.est != s.est || b.se != s.se || b.samples != s.samples || b.queries != s.queries {
				t.Errorf("batched est=%v samples=%d charged=%d, serial est=%v samples=%d charged=%d",
					math.Float64frombits(b.est), b.samples, b.queries,
					math.Float64frombits(s.est), s.samples, s.queries)
			}
		})
	}
}

// cancelOracle cancels a run after a fixed number of answered queries
// and, like a remote client, fails every call once its context is
// done.
type cancelOracle struct {
	lbs.Querier
	after  int64
	cancel context.CancelFunc
	served int64
}

func (o *cancelOracle) tick(ctx context.Context, n int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if o.served += int64(n); o.served >= o.after {
		o.cancel()
	}
	return nil
}

func (o *cancelOracle) QueryLNR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LNRRecord, error) {
	if err := o.tick(ctx, 1); err != nil {
		return nil, err
	}
	return o.Querier.QueryLNR(ctx, q, filter)
}

func (o *cancelOracle) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error) {
	if err := o.tick(ctx, len(pts)); err != nil {
		return nil, err
	}
	return o.Querier.QueryLNRBatch(ctx, pts, filter)
}

// TestLNRBatchedCancelJoinsLanes: a run canceled while lanes are parked
// returns with every lane goroutine gone.
func TestLNRBatchedCancelJoinsLanes(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, after := range []int64{5, 30, 90} {
		ctx, cancel := context.WithCancel(context.Background())
		o := &cancelOracle{Querier: lbs.NewService(smallService2(1500, 41), lbs.Options{K: 5}), after: after, cancel: cancel}
		agg := NewLNRAggregator(o, LNROptions{Seed: 4})
		if _, err := agg.Step(ctx, false); !errors.Is(err, context.Canceled) {
			t.Errorf("after=%d: Step returned %v, want context.Canceled", after, err)
		}
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after canceled runs, %d before", n, base)
	}
}

// TestLNRStatsRoundTripsAndUnresolved: on weibo-20k at H = 1 the
// batched cell search sends at least 2.5 queries per oracle call, and
// cells left open by a failed second flip point are counted.
func TestLNRStatsRoundTripsAndUnresolved(t *testing.T) {
	svc := lbs.NewService(workload.WeiboChina(20000, 1).DB, lbs.Options{K: 10})
	agg := NewLNRAggregator(svc, LNROptions{Seed: 1})
	if _, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(40), WithoutTrace()); err != nil {
		t.Fatal(err)
	}
	st := agg.Stats()
	if ratio := float64(svc.QueryCount()) / float64(st.RoundTrips); ratio < 2.5 {
		t.Errorf("%d queries over %d round trips = %.2f per call, want ≥ 2.5", svc.QueryCount(), st.RoundTrips, ratio)
	}
	if st.UnresolvedCells == 0 {
		t.Errorf("no unresolved cells recorded: %+v", st)
	}
}

// TestLNRProberLockstepOrder: lanes of lockstep see their own answers
// whatever the interleaving, and a batch that fails part way leaves
// the unanswered lanes to meet the error themselves.
func TestLNRProberLockstepOrder(t *testing.T) {
	svc := lbs.NewService(smallService2(300, 41), lbs.Options{K: 5, Budget: 7})
	p := newLNRProber(svc, nil)
	errs := make([]error, 3)
	got := make([][]int64, 3)
	p.lockstep(context.Background(), 3, func(i int) {
		for j := 0; j < 3; j++ {
			recs, err := p.probe(context.Background(), geom.Pt(float64(10+30*i), float64(10+30*j)))
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = append(got[i], recs[0].ID)
		}
	})
	// Round 1 and 2 send three points each; round 3 is granted one of
	// its three, so lane 0 finishes and lanes 1 and 2 fail directly.
	if svc.QueryCount() != 7 || p.trips != 5 {
		t.Errorf("charged %d over %d calls, want 7 over 5", svc.QueryCount(), p.trips)
	}
	if errs[0] != nil || len(got[0]) != 3 {
		t.Errorf("lane 0: %v, %d answers", errs[0], len(got[0]))
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(errs[i], lbs.ErrBudgetExhausted) || len(got[i]) != 2 {
			t.Errorf("lane %d: %v after %d answers, want budget exhaustion after 2", i, errs[i], len(got[i]))
		}
	}
	ref := lbs.NewService(smallService2(300, 41), lbs.Options{K: 5})
	for i := range got {
		for j, id := range got[i] {
			recs, _ := ref.QueryLNR(context.Background(), geom.Pt(float64(10+30*i), float64(10+30*j)), nil)
			if recs[0].ID != id {
				t.Errorf("lane %d probe %d: top-1 %d, want %d", i, j, id, recs[0].ID)
			}
		}
	}
}

// batchCalls is an lbs.Querier that records the points of every batch
// call.
type batchCalls struct {
	lbs.Querier
	calls [][]geom.Point
}

func (b *batchCalls) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error) {
	b.calls = append(b.calls, slices.Clone(pts))
	return b.Querier.QueryLNRBatch(ctx, pts, filter)
}

// TestLNRVertexRoundFlipRingsShareBatch: the flips a vertex round's
// brackets start, up to the first repeated key or vertex twin, run as
// lockstep lanes. Each such flip of a new key begins with a ring search
// (12 points at half the anchor distance), and those rings go out
// together in one batch call, not one call per ring.
func TestLNRVertexRoundFlipRingsShareBatch(t *testing.T) {
	o := &batchCalls{Querier: lbs.NewService(workload.WeiboChina(3000, 11).DB, lbs.Options{K: 10})}
	a := NewLNRAggregator(o, LNROptions{Seed: 1})
	ctx := context.Background()
	rounds := 0
	for s := 0; s < 12; s++ {
		q := a.smp.Sample(a.rng)
		recs, err := a.prober.probe(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			continue
		}
		c := a.newCell(recs[0].ID, 1, q)
		if err := a.axisCuts(ctx, c); err != nil {
			t.Fatal(err)
		}
		// The first round's lanes: its vertices' brackets in order, up
		// to the first twin, failure or repeated key. Probing them here
		// leaves the round's own batches to the flips.
		var lanes []edgeBracket
		keys := make(map[int64]bool)
		seen := make(map[vkey]bool)
		for _, v := range c.region.Vertices() {
			if seen[a.vkeyOf(v)] {
				break
			}
			seen[a.vkeyOf(v)] = true
			b := a.probeVertex(ctx, c, v)
			if b.err != nil || (b.ok && keys[b.other]) {
				break
			}
			if b.ok {
				keys[b.other] = true
				lanes = append(lanes, b)
			}
		}
		// The uncached points of each new-key lane's first ring.
		var rings [][]geom.Point
		for _, b := range lanes {
			if _, known := c.flipPts[b.other]; known {
				continue
			}
			m := b.c3.Mid(b.c4)
			var ring []geom.Point
			for _, p := range a.ringPoints(m, 0.5*m.Sub(c.c1).Norm()) {
				if _, ok := a.prober.cache[p]; !ok {
					ring = append(ring, p)
				}
			}
			if len(ring) > 0 {
				rings = append(rings, ring)
			}
		}
		o.calls = nil
		if _, _, err := a.vertexRound(ctx, c, map[vkey]bool{}); err != nil {
			t.Fatal(err)
		}
		if len(rings) < 2 {
			continue
		}
		rounds++
		most := 0
		for _, call := range o.calls {
			n := 0
			for _, ring := range rings {
				if !slices.ContainsFunc(ring, func(p geom.Point) bool { return !slices.Contains(call, p) }) {
					n++
				}
			}
			most = max(most, n)
		}
		if most < len(rings) {
			t.Errorf("sample %d: at most %d of %d lane rings shared one of the round's %d batch calls",
				s, most, len(rings), len(o.calls))
		}
	}
	if rounds == 0 {
		t.Fatal("no first vertex round had two new-key flip lanes; the fixture no longer exercises lockstep flips")
	}
}
