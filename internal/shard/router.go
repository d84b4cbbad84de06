package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// Shard is one federation member: a querier answering distance-ranked
// candidate queries for the tuples whose effective locations lie in
// Region. In-process members are *lbs.Service views over a Partition
// piece; remote members are httpapi clients whose Region is the
// upstream's Bounds().
//
// Members must be distance-ranked candidate sources: QueryLR returns
// their K() nearest tuples by (dist, ID) with locations. The Router
// applies the logical rank/prominence selection itself, which is what
// keeps federated answers bit-identical to a single service — a
// member that pre-applies its own prominence re-ranking (or hides
// locations) cannot be federated exactly.
type Shard struct {
	Querier lbs.Querier
	Region  geom.Rect
}

// ShardStat is the per-member slice of a Router's stats surface.
type ShardStat struct {
	// Region is the member's coverage rectangle, flattened to
	// min_x … max_y on the wire (see MarshalJSON).
	Region geom.Rect `json:"-"`
	// Queries is the member's lifetime physical query count.
	Queries int64 `json:"queries"`
	// State is the member's breaker state (closed / open / half-open).
	State BreakerState `json:"state,omitempty"`
	// Failures counts availability-class call failures (cumulative);
	// Opens counts how many times the breaker tripped.
	Failures int64 `json:"failures,omitempty"`
	Opens    int64 `json:"opens,omitempty"`
}

// MarshalJSON writes the member's wire form: the region's corners as
// min_x, min_y, max_x, max_y, then the counters.
func (s ShardStat) MarshalJSON() ([]byte, error) {
	type counters ShardStat // drops this method, keeps the field tags
	return json.Marshal(struct {
		MinX float64 `json:"min_x"`
		MinY float64 `json:"min_y"`
		MaxX float64 `json:"max_x"`
		MaxY float64 `json:"max_y"`
		counters
	}{s.Region.Min.X, s.Region.Min.Y, s.Region.Max.X, s.Region.Max.Y, counters(s)})
}

// RouterStats snapshots a Router's cost accounting and health: logical
// queries charged against the federated budget, total physical
// subqueries fanned out, resilience counters, and the per-shard
// breakdown.
type RouterStats struct {
	// Logical is the number of client-visible queries answered (the
	// paper's cost metric; what the budget meters).
	Logical int64 `json:"logical"`
	// Upstream is the number of physical subqueries the router issued
	// across all shards; Upstream/Logical is the effective fan-out.
	Upstream int64 `json:"upstream"`
	// Partial counts logical queries answered degraded (a relevant
	// member was skipped or failed); Dropped counts batch positions
	// that got no answer because their owner was down.
	Partial int64 `json:"partial,omitempty"`
	Dropped int64 `json:"dropped,omitempty"`
	// Retries counts extra member attempts the resilience layer
	// issued.
	Retries int64 `json:"retries,omitempty"`
	// Shards is the per-member breakdown, in shard order.
	Shards []ShardStat `json:"shards"`
}

// Router federates N shards behind the lbs.Querier interface using
// two-phase scatter-gather:
//
//  1. The shard owning the query point (nearest healthy region) is
//     asked for its candidates; when it returns a full candidate set,
//     the distance of its last candidate bounds how far a better
//     candidate can hide in another shard.
//  2. The query fans out only to shards whose regions intersect the
//     closed ball of that radius; all candidates merge by (dist, ID) —
//     the service ordering contract — and the logical rank/prominence
//     selection is re-applied over the merged set.
//
// Every tuple within the bound lies in some contacted shard (regions
// cover their tuples' effective locations), and per-shard candidate
// lists are (dist, ID)-prefixes of the union's, so the merged answer
// is bit-identical to a single lbs.Service over the union database —
// including out-of-bounds query points, which route to the nearest
// region and are answered from the full federation like any other.
//
// Under partial failure the router degrades instead of failing: member
// calls run through the resilience pipeline (deadline and retry — see
// Resilience), a member that still fails is recorded by its
// circuit breaker and routed around once the breaker opens, and a
// query whose fan-out lost a relevant member returns the survivors'
// merge annotated with *lbs.PartialError. Only the owner is
// indispensable — its candidates anchor the bound — so an owner
// failure is a crisp typed error (ErrOwnerDown) instead of a fabricated
// answer.
//
// The Router owns the logical cost model: its Budget meters
// client-visible queries (one unit per answered point, however wide
// the fan-out), and QueryCount reports them. Degraded answers are
// charged (they are answers); dropped batch positions are refunded.
// Shard members keep their own physical counters, aggregated by
// Stats. Shards must hold pairwise-disjoint tuple sets (Partition
// guarantees it; remote deployments must not register overlapping
// upstreams). A Router is safe for concurrent use whenever its
// members are.
type Router struct {
	shards []Shard
	opts   lbs.Options
	res    Resilience
	want   int // distance candidates needed per logical query
	bounds geom.Rect

	meter  *lbs.Meter
	health []*shardHealth
	// inline[i] reports that shard i's member is lbs.NonBlocking: its
	// calls run on the caller's goroutine (see attempt).
	inline []bool

	fanout  atomic.Int64
	partial atomic.Int64
	dropped atomic.Int64
	retries atomic.Int64
}

var _ lbs.Querier = (*Router)(nil)

// NewRouter federates shards behind the logical service options with
// the given failure handling (DefaultResilience for production; the
// zero Resilience disables deadlines, retries and the breaker while
// keeping degraded-mode merging). K, MaxRadius, Budget and the
// rank/prominence fields describe the service the federation
// presents, exactly as lbs.Options does for NewService. Every member
// must answer at least the router's candidate count
// (lbs.Options.CandidateCount: K, or K×4 under prominence rank).
func NewRouter(shards []Shard, opts lbs.Options, res Resilience) (*Router, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: NewRouter needs at least one shard")
	}
	want := opts.CandidateCount()
	bounds := shards[0].Region
	for i, sh := range shards {
		if sh.Querier == nil {
			return nil, fmt.Errorf("shard: shard %d has no querier", i)
		}
		if k := sh.Querier.K(); k < want {
			return nil, fmt.Errorf("shard: shard %d answers k=%d, federation needs ≥ %d candidates", i, k, want)
		}
		bounds.Min.X = math.Min(bounds.Min.X, sh.Region.Min.X)
		bounds.Min.Y = math.Min(bounds.Min.Y, sh.Region.Min.Y)
		bounds.Max.X = math.Max(bounds.Max.X, sh.Region.Max.X)
		bounds.Max.Y = math.Max(bounds.Max.Y, sh.Region.Max.Y)
	}
	health := make([]*shardHealth, len(shards))
	inline := make([]bool, len(shards))
	for i, sh := range shards {
		health[i] = &shardHealth{}
		_, inline[i] = sh.Querier.(lbs.NonBlocking)
	}
	return &Router{
		shards: shards, opts: opts, res: res, want: want, bounds: bounds,
		meter:  lbs.NewMeter(opts.Budget),
		health: health,
		inline: inline,
	}, nil
}

// Bounds implements lbs.Querier: the union of the shard regions.
func (r *Router) Bounds() geom.Rect { return r.bounds }

// K implements lbs.Querier (the logical top-k).
func (r *Router) K() int { return r.opts.K }

// Metric returns the distance metric the federation ranks by (every
// member service carries the same one).
func (r *Router) Metric() geo.Metric { return r.opts.Metric }

// Options returns the logical options the federation answers under.
// An answer cache above the router reads them to bound what a
// mutation can change.
func (r *Router) Options() lbs.Options { return r.opts }

// Members returns the per-shard backend queriers (including any
// wrappers installed via FromPartsWrapped, such as fault injectors):
// the composite hook through which lbs.Walk visits each member's
// layers, so /v1/stats reports what the router itself does not
// aggregate (the members' fault injectors).
func (r *Router) Members() []lbs.Querier {
	out := make([]lbs.Querier, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.Querier
	}
	return out
}

// QueryCount implements lbs.Querier: logical queries answered.
func (r *Router) QueryCount() int64 { return r.meter.Count() }

// RemainingBudget returns how many logical queries may still be
// issued, or −1 for unlimited.
func (r *Router) RemainingBudget() int64 { return r.meter.Remaining() }

// DegradedCount returns how many logical queries were answered from a
// partial federation — the contamination metric the estimation layers
// fold into traces and job views.
func (r *Router) DegradedCount() int64 { return r.partial.Load() }

// Stats snapshots the router's cost accounting and member health.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Logical:  r.meter.Count(),
		Upstream: r.fanout.Load(),
		Partial:  r.partial.Load(),
		Dropped:  r.dropped.Load(),
		Retries:  r.retries.Load(),
		Shards:   make([]ShardStat, len(r.shards)),
	}
	now := time.Now()
	for i, sh := range r.shards {
		state, failures, opens := r.health[i].snapshot(now, r.res.BreakerCooldown)
		st.Shards[i] = ShardStat{
			Region: sh.Region, Queries: sh.Querier.QueryCount(),
			State: state, Failures: failures, Opens: opens,
		}
	}
	return st
}

// minDist lower-bounds the distance from q to the nearest point of
// rect under the router's metric (geo.Metric.RectMinDist). Euclidean
// is the exact Dist2+Sqrt clamp expression the k-d tree ranks with —
// correctly-rounded float monotonicity then guarantees that a shard
// is pruned only if every tuple inside its region is strictly farther
// than the bound. Haversine is a conservative (possibly loose) lower
// bound, which preserves the same guarantee: pruning can only skip
// shards that provably cannot contribute.
func (r *Router) minDist(q geom.Point, rect geom.Rect) float64 {
	return r.opts.Metric.RectMinDist(q, rect)
}

// rankDist is the merge key in the router's metric (see
// lbs.Options.RankDist: the k-d tree's canonical distance pipeline,
// not the Hypot wire distance).
func (r *Router) rankDist(q geom.Point, rec *lbs.LRRecord) float64 {
	return r.opts.RankDist(q, rec)
}

// breakerOn reports whether health gating is active.
func (r *Router) breakerOn() bool { return r.res.BreakerThreshold > 0 }

// pickOwner picks the phase-one shard for a query point: the shard
// whose region is nearest (first wins ties) among members whose
// breaker is closed, or that this batch already probes (probing[i];
// nil on the point path) — health-gated routing moves ownership of a
// dead member's region to its nearest healthy neighbor. Ownership is
// a routing heuristic only (any choice yields the same merged
// answer over the reachable members), but it must be total, so
// federation defines QueryLR for every point on the plane — which is
// also why it deliberately stays planar Dist2 proximity under every
// metric: the phase-two bound derived from any owner's full answer is
// valid, so the metric only needs to govern minDist and rankDist.
//
// When no breaker is closed, the nearest member whose cooldown has
// elapsed is admitted as a probe owner (probe=true): fan-out probes
// need an owner, so without this a federation whose every breaker
// opened would never call a member again and never recover. ok=false
// means no member may own the query.
func (r *Router) pickOwner(q geom.Point, probing []bool) (owner int, probe, ok bool) {
	best, bestD := -1, math.Inf(1)
	for i, sh := range r.shards {
		if r.breakerOn() && !r.health[i].ownable() && (probing == nil || !probing[i]) {
			continue
		}
		d := q.Dist2(sh.Region.Clamp(q))
		if d < bestD {
			best, bestD = i, d
			if d == 0 {
				break
			}
		}
	}
	if best >= 0 {
		return best, false, true
	}
	order := make([]int, len(r.shards))
	dist := make([]float64, len(r.shards))
	for i, sh := range r.shards {
		order[i], dist[i] = i, q.Dist2(sh.Region.Clamp(q))
	}
	sort.SliceStable(order, func(a, b int) bool { return dist[order[a]] < dist[order[b]] })
	now := time.Now()
	for _, i := range order {
		if admitted, probe := r.health[i].admit(now, r.res.BreakerCooldown); admitted {
			return i, probe, true
		}
	}
	return -1, false, false
}

// boundFor derives the phase-two fan-out radius from the owner's
// answer: the distance of the owner's want-th candidate when the owner
// answered in full (no better candidate can hide farther away), else
// the coverage radius, else unbounded.
func (r *Router) boundFor(q geom.Point, ownerRecs []lbs.LRRecord) float64 {
	bound := math.Inf(1)
	if r.opts.MaxRadius > 0 {
		bound = r.opts.MaxRadius
	}
	if len(ownerRecs) >= r.want {
		if d := r.rankDist(q, &ownerRecs[r.want-1]); d < bound {
			bound = d
		}
	}
	return bound
}

// selectTop applies the logical selection over the collected per-shard
// candidate lists: merge by (dist, ID) and re-apply the rank /
// prominence selection — lbs.MergeRanked, the one shared
// implementation of the selection every composite front applies.
func (r *Router) selectTop(q geom.Point, lists ...[]lbs.LRRecord) []lbs.LRRecord {
	return lbs.MergeRanked(q, r.opts, lists...)
}

// fanOutAll runs one subquery per target shard — concurrently when
// there is more than one target and seq is false, since remote members
// each pay a network round-trip and the merge is completion-order
// independent (selectTop imposes the total (dist, ID) order). With seq
// set the subqueries run one after another on the caller's goroutine.
// Results and errors come back index-aligned with targets; the caller
// classifies each failure instead of the first error winning. Members
// are required to be safe for concurrent use (the lbs.Querier
// contract).
func fanOutAll[T any](targets []int, seq bool, f func(j, si int) (T, error)) ([]T, []error) {
	out := make([]T, len(targets))
	errs := make([]error, len(targets))
	if seq || len(targets) <= 1 {
		for j, si := range targets {
			out[j], errs[j] = f(j, si)
		}
		return out, errs
	}
	var wg sync.WaitGroup
	for j, si := range targets {
		wg.Add(1)
		go func(j, si int) {
			defer wg.Done()
			out[j], errs[j] = f(j, si)
		}(j, si)
	}
	wg.Wait()
	return out, errs
}

// allInline reports whether every target shard's member runs inline
// (lbs.NonBlocking), so a single-point fan-out gains nothing from
// running them concurrently.
func (r *Router) allInline(targets []int) bool {
	for _, si := range targets {
		if !r.inline[si] {
			return false
		}
	}
	return true
}

// queryMember is the single-point member call: one subquery through
// the resilience pipeline, counted in the physical fan-out.
func (r *Router) queryMember(ctx context.Context, si int, probe bool, q geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	return memberCall(r, ctx, si, probe, func(c context.Context, mq lbs.Querier) ([]lbs.LRRecord, error) {
		recs, err := mq.QueryLR(c, q, filter)
		r.fanout.Add(1)
		return recs, err
	})
}

// scatterOne runs the two-phase scatter-gather for one (already
// charged) logical query. The answer may carry a *lbs.PartialError
// annotation when a relevant non-owner member was skipped (breaker
// open) or failed after retries.
func (r *Router) scatterOne(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	owner, probe, ok := r.pickOwner(q, nil)
	if !ok {
		return nil, ErrNoShards
	}
	ownerRecs, err := r.queryMember(ctx, owner, probe, q, filter)
	missing := 0
	var firstErr error
	if pe, isPartial := lbs.AsPartial(err); isPartial {
		// A nested federation answered degraded: usable, but the
		// annotation propagates.
		missing += pe.Missing
		firstErr = err
	} else if err != nil {
		if !r.availabilityClass(ctx, err) {
			return nil, err
		}
		return nil, &OwnerDownError{Shard: owner, Err: err}
	}
	bound := r.boundFor(q, ownerRecs)
	lists := [][]lbs.LRRecord{ownerRecs}
	var targets []int
	var probes, inBall []bool
	now := time.Now()
	for i := range r.shards {
		if i == owner {
			continue
		}
		ball := r.minDist(q, r.shards[i].Region) <= bound
		admitted, probe := true, false
		if r.breakerOn() {
			admitted, probe = r.health[i].admit(now, r.res.BreakerCooldown)
		}
		if !admitted {
			if ball {
				missing++
			}
			continue
		}
		if !ball && !probe {
			continue
		}
		targets = append(targets, i)
		probes = append(probes, probe)
		inBall = append(inBall, ball)
	}
	answers, errs := fanOutAll(targets, r.allInline(targets), func(j, si int) ([]lbs.LRRecord, error) {
		return r.queryMember(ctx, si, probes[j], q, filter)
	})
	for j := range targets {
		err := errs[j]
		if err == nil || lbs.IsPartial(err) {
			lists = append(lists, answers[j])
			if pe, isPartial := lbs.AsPartial(err); isPartial {
				missing += pe.Missing
				if firstErr == nil {
					firstErr = err
				}
			}
			continue
		}
		if !r.availabilityClass(ctx, err) {
			return nil, err
		}
		if inBall[j] {
			// A relevant member failed after retries: answer from
			// the survivors, annotated.
			missing++
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	merged := r.selectTop(q, lists...)
	if missing > 0 {
		r.partial.Add(1)
		return merged, &lbs.PartialError{Degraded: 1, Missing: missing, Err: firstErr}
	}
	return merged, nil
}

// batchScatterState accumulates per-point outcomes across the two
// phases of a batch scatter.
type batchScatterState struct {
	owners  []int
	dropped []bool // owner down: no answer, unit refunded by caller
	missing []int  // relevant members lost per point
	phase1  [][]lbs.LRRecord
	lists   [][][]lbs.LRRecord

	missCalls int // member subquery failures/skips, for the annotation
	firstErr  error
}

// scatterBatch is scatterOne over m points with per-shard batching:
// phase-one queries group by owning shard (one batch per shard), and
// phase-two fan-outs group the (point, shard) pairs the ball test
// selects into one batch per shard — so a federated batch costs at
// most 2·N shard round-trips however many points it carries.
//
// Failures degrade per position: a failed owner batch drops only its
// own points (nil answers — the caller refunds exactly those units),
// and a failed phase-two batch marks its points' answers partial. The
// returned error is nil for a full answer, a *lbs.PartialError when
// any position was degraded or dropped, or the crisp underlying error
// when the failure class aborts the whole batch (spent member budget,
// canceled caller).
func (r *Router) scatterBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	st := &batchScatterState{
		owners:  make([]int, len(pts)),
		dropped: make([]bool, len(pts)),
		missing: make([]int, len(pts)),
		phase1:  make([][]lbs.LRRecord, len(pts)),
		lists:   make([][][]lbs.LRRecord, len(pts)),
	}
	group := make([][]int, len(r.shards))
	// probing marks the members this batch admitted as probe owners:
	// they own later points too, so one probe serves the whole batch.
	var probing []bool
	for i, q := range pts {
		o, probe, ok := r.pickOwner(q, probing)
		if !ok {
			return nil, ErrNoShards
		}
		if probe {
			if probing == nil {
				probing = make([]bool, len(r.shards))
			}
			probing[o] = true
		}
		st.owners[i] = o
		group[o] = append(group[o], i)
	}
	// Phase 1: owner batches. An owner batch that fails drops its
	// positions; the rest of the batch proceeds.
	err := r.shardBatches(ctx, pts, filter, group, probing,
		func(pos int, recs []lbs.LRRecord, degraded bool) {
			st.phase1[pos] = recs
			st.lists[pos] = append(st.lists[pos], recs)
			if degraded {
				st.missing[pos]++
			}
		},
		func(si int, err error) {
			st.missCalls++
			for _, pos := range group[si] {
				st.dropped[pos] = true
			}
			if st.firstErr == nil {
				st.firstErr = &OwnerDownError{Shard: si, Err: err}
			}
		})
	if err != nil {
		return nil, err
	}
	// Phase 2: ball-test fan-out, skipping open breakers (each skip
	// degrades the positions it would have covered).
	bounds := make([]float64, len(pts))
	for i, q := range pts {
		if !st.dropped[i] {
			bounds[i] = r.boundFor(q, st.phase1[i])
		}
	}
	need := make([][]int, len(r.shards))
	probes := make([]bool, len(r.shards))
	now := time.Now()
	for si := range r.shards {
		for i, q := range pts {
			if st.dropped[i] || si == st.owners[i] {
				continue
			}
			if r.minDist(q, r.shards[si].Region) <= bounds[i] {
				need[si] = append(need[si], i)
			}
		}
		admitted, probe := true, false
		if r.breakerOn() {
			admitted, probe = r.health[si].admit(now, r.res.BreakerCooldown)
		}
		if !admitted {
			// A refused member is missing only to the points that
			// needed it.
			for _, i := range need[si] {
				st.missing[i]++
			}
			if len(need[si]) > 0 {
				st.missCalls++
			}
			need[si] = nil
			continue
		}
		probes[si] = probe
		if probe && len(need[si]) == 0 {
			r.health[si].releaseProbe()
			probes[si] = false
		}
	}
	err = r.shardBatches(ctx, pts, filter, need, probes,
		func(pos int, recs []lbs.LRRecord, degraded bool) {
			st.lists[pos] = append(st.lists[pos], recs)
			if degraded {
				st.missing[pos]++
			}
		},
		func(si int, err error) {
			st.missCalls++
			for _, pos := range need[si] {
				st.missing[pos]++
			}
			if st.firstErr == nil {
				st.firstErr = err
			}
		})
	if err != nil {
		return nil, err
	}
	out := make([][]lbs.LRRecord, len(pts))
	degraded, droppedN := 0, 0
	for i := range pts {
		if st.dropped[i] {
			droppedN++
			continue
		}
		out[i] = r.selectTop(pts[i], st.lists[i]...)
		if st.missing[i] > 0 {
			degraded++
		}
	}
	if degraded == 0 && droppedN == 0 {
		return out, nil
	}
	r.partial.Add(int64(degraded))
	r.dropped.Add(int64(droppedN))
	return out, &lbs.PartialError{
		Degraded: degraded, Dropped: droppedN, Missing: st.missCalls, Err: st.firstErr,
	}
}

// shardBatches issues one batch per involved shard — concurrently
// across shards via fanOutAll — for the grouped point positions, then
// hands every answer back through sink (sequentially, so sinks need no
// locking). probes marks per-shard half-open trials (nil = none). A
// shard whose batch fails with an availability-class error is reported
// through onErr and the rest proceed; any other failure aborts and is
// returned. A member's own partial annotation flows through as
// degraded=true on each of its answers.
func (r *Router) shardBatches(ctx context.Context, pts []geom.Point, filter lbs.Filter,
	group [][]int, probes []bool,
	sink func(pos int, recs []lbs.LRRecord, degraded bool),
	onErr func(si int, err error)) error {

	var targets []int
	for si, positions := range group {
		if len(positions) > 0 {
			targets = append(targets, si)
		}
	}
	answers, errs := fanOutAll(targets, false, func(j, si int) ([][]lbs.LRRecord, error) {
		probe := probes != nil && probes[si]
		return memberCall(r, ctx, si, probe, func(c context.Context, mq lbs.Querier) ([][]lbs.LRRecord, error) {
			positions := group[si]
			sub := make([]geom.Point, len(positions))
			for j, p := range positions {
				sub[j] = pts[p]
			}
			a, err := mq.QueryLRBatch(c, sub, filter)
			r.fanout.Add(int64(len(sub)))
			return a, err
		})
	})
	for t, si := range targets {
		err := errs[t]
		if err != nil && !lbs.IsPartial(err) {
			if !r.availabilityClass(ctx, err) {
				return err
			}
			onErr(si, err)
			continue
		}
		degraded := lbs.IsPartial(err)
		for j, p := range group[si] {
			sink(p, answers[t][j], degraded)
		}
	}
	return nil
}

// QueryLR implements lbs.Querier: one logical unit of budget, however
// wide the physical fan-out. A degraded answer keeps its charge (it is
// an answer, annotated with *lbs.PartialError); a failed query refunds
// the unit.
func (r *Router) QueryLR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	if _, err := r.meter.ChargeN(ctx, 1); err != nil {
		return nil, err
	}
	recs, err := r.scatterOne(ctx, q, filter)
	if err != nil && !lbs.IsPartial(err) {
		r.meter.Refund(1)
		return nil, err
	}
	return recs, err
}

// QueryLNR implements lbs.Querier: the federated LNR answer is the LR
// answer with locations withheld at the router — federation members
// must expose locations (the router is service-side infrastructure;
// the LNR restriction applies to the federation's public interface,
// not between its shards).
func (r *Router) QueryLNR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LNRRecord, error) {
	return lbs.LNROf(r.QueryLR(ctx, q, filter))
}

// QueryLRBatch implements lbs.Querier with Service batch semantics:
// one atomic logical reservation, index-aligned answers, nil entries
// past a mid-batch budget death alongside ErrBudgetExhausted. Shard
// failures degrade per position — answered positions (including
// degraded ones) keep their charge, and only the units of positions
// that got no answer are refunded.
func (r *Router) QueryLRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	out := make([][]lbs.LRRecord, len(pts))
	granted, gerr := r.meter.ChargeN(ctx, int64(len(pts)))
	if granted == 0 {
		return out, gerr
	}
	answers, serr := r.scatterBatch(ctx, pts[:granted], filter)
	if serr != nil && !lbs.IsPartial(serr) {
		r.meter.Refund(granted)
		return make([][]lbs.LRRecord, len(pts)), serr
	}
	var answered int64
	for i, recs := range answers {
		if recs != nil {
			out[i] = recs
			answered++
		}
	}
	r.meter.Refund(granted - answered)
	if gerr != nil {
		// A partial *grant* dominates the annotation: positions past
		// the granted prefix are nil-with-ErrBudgetExhausted, the
		// contract every batch caller already understands.
		return out, gerr
	}
	return out, serr
}

// QueryLNRBatch implements lbs.Querier: the federated LR batch,
// locations withheld.
func (r *Router) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error) {
	return lbs.LNRBatchOf(r.QueryLRBatch(ctx, pts, filter))
}
