// Package faults injects deterministic, seedable failures into any
// lbs.Querier: shard death (permanent or a crash-recover window),
// per-call transient errors, jittered heavy-tailed latency, slow-shard
// mode and duplicate delivery. The injector is the test double the
// federation's resilience layer is pinned against and the engine
// behind the chaos experiment — it composes under lbs.Wrapper, so
// lbs.Walk finds it (and /v1/stats sums its Stats) wherever it sits,
// federation members included.
//
// Determinism: every fault decision is drawn from a private PRNG
// seeded by Spec.Seed and advanced once per delivered call, so a
// serial caller replays the exact same fault sequence on every run.
// (Concurrent callers interleave decisions nondeterministically, like
// any shared PRNG — chaos sweeps that need exact replay run serially.)
package faults

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// ErrDown is the failure every call to a dead shard returns. It is
// deliberately NOT transient: retrying a dead shard inside one call
// wastes the caller's latency budget — the circuit breaker, not the
// retry loop, is the mechanism that handles death.
var ErrDown = errors.New("faults: shard down")

// errTransient is the injected per-call failure; IsTransient reports
// it retryable, so a bounded retry recovers it.
var errTransient = lbs.MarkTransient(errors.New("faults: injected transient failure"))

// Spec is a fault schedule. The zero value injects nothing.
type Spec struct {
	// Seed seeds the injector's private PRNG (0 is a valid seed).
	Seed int64

	// TransientRate fails each call independently with this
	// probability (a retryable, marked-transient error).
	TransientRate float64
	// TransientEvery fails every n-th call (0-based: calls 0, n, 2n…)
	// exactly once — a deterministic, fully-recovering schedule: the
	// immediate retry is the next call and always succeeds (n ≥ 2).
	// 0 disables.
	TransientEvery int64

	// DownAfter kills the shard starting at call index DownAfter
	// (> 0; every later call fails with ErrDown). 0 disables the
	// scheduled death — use Kill for an immediate one.
	DownAfter int64
	// DownFor bounds the outage to this many calls, after which the
	// shard recovers (a crash-recover window). 0 with DownAfter > 0
	// means the death is permanent.
	DownFor int64

	// Latency adds a per-call delay with this median. With
	// LatencySigma > 0 the delay is log-normal around the median
	// (heavy-tailed); otherwise it is constant.
	Latency      time.Duration
	LatencySigma float64
	// SlowFactor multiplies the injected latency (slow-shard mode;
	// 0 or 1 means no slowdown).
	SlowFactor float64

	// DuplicateRate delivers a call twice upstream with this
	// probability: the inner querier runs twice (double physical
	// cost), one answer returns — the at-least-once-delivery fault.
	DuplicateRate float64
}

// ParseSpec parses a comma-separated k=v fault spec, e.g.
//
//	"seed=7,transient=0.05,every=0,down-after=500,down-for=200,latency=2ms,sigma=0.6,slow=1,dup=0.01"
//
// Unknown keys are an error; every key is optional.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return spec, fmt.Errorf("faults: malformed field %q (want key=value)", kv)
		}
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "transient":
			spec.TransientRate, err = strconv.ParseFloat(val, 64)
		case "every":
			spec.TransientEvery, err = strconv.ParseInt(val, 10, 64)
		case "down-after":
			spec.DownAfter, err = strconv.ParseInt(val, 10, 64)
		case "down-for":
			spec.DownFor, err = strconv.ParseInt(val, 10, 64)
		case "latency":
			spec.Latency, err = time.ParseDuration(val)
		case "sigma":
			spec.LatencySigma, err = strconv.ParseFloat(val, 64)
		case "slow":
			spec.SlowFactor, err = strconv.ParseFloat(val, 64)
		case "dup":
			spec.DuplicateRate, err = strconv.ParseFloat(val, 64)
		default:
			return spec, fmt.Errorf("faults: unknown spec key %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("faults: bad value for %q: %v", key, err)
		}
	}
	return spec, nil
}

// Stats counts what the injector actually did.
type Stats struct {
	// Calls is the number of deliveries gated (batch = one call).
	Calls int64 `json:"calls"`
	// Transients, DownCalls and Duplicates count injected faults.
	Transients int64 `json:"transients"`
	DownCalls  int64 `json:"down_calls"`
	Duplicates int64 `json:"duplicates"`
	// Slowed counts calls that slept injected latency.
	Slowed int64 `json:"slowed"`
}

// Add returns the field-wise sum of s and o: the totals of several
// injectors (one per federation member).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Calls: s.Calls + o.Calls, Transients: s.Transients + o.Transients,
		DownCalls: s.DownCalls + o.DownCalls, Duplicates: s.Duplicates + o.Duplicates,
		Slowed: s.Slowed + o.Slowed,
	}
}

// Injector wraps a Querier with a fault schedule. It implements
// lbs.Querier and lbs.Wrapper; one injector guards one member.
type Injector struct {
	inner lbs.Querier
	spec  Spec

	mu     sync.Mutex
	rng    *rand.Rand
	calls  int64
	killed bool
	stats  Stats
}

var _ lbs.Querier = (*Injector)(nil)

// New wraps inner with the given fault schedule.
func New(inner lbs.Querier, spec Spec) *Injector {
	return &Injector{inner: inner, spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
}

// Inner implements lbs.Wrapper.
func (i *Injector) Inner() lbs.Querier { return i.inner }

// Bounds implements lbs.Querier.
func (i *Injector) Bounds() geom.Rect { return i.inner.Bounds() }

// K implements lbs.Querier.
func (i *Injector) K() int { return i.inner.K() }

// QueryCount implements lbs.Querier.
func (i *Injector) QueryCount() int64 { return i.inner.QueryCount() }

// Stats snapshots the fault counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// Kill takes the shard down immediately and permanently (until
// Revive) — the mid-run shard-death switch chaos tests flip.
func (i *Injector) Kill() {
	i.mu.Lock()
	i.killed = true
	i.mu.Unlock()
}

// Revive clears both a Kill and a scheduled outage: the shard answers
// again starting with the next call.
func (i *Injector) Revive() {
	i.mu.Lock()
	i.killed = false
	if i.spec.DownAfter > 0 && i.calls >= i.spec.DownAfter {
		// Cancel the scheduled outage too, or the next call would
		// just die again.
		i.spec.DownAfter = 0
	}
	i.mu.Unlock()
}

// Down reports whether the next call would fail with ErrDown.
func (i *Injector) Down() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.downAt(i.calls)
}

// downAt reports the outage state at call index n (mu held).
func (i *Injector) downAt(n int64) bool {
	if i.killed {
		return true
	}
	if i.spec.DownAfter <= 0 || n < i.spec.DownAfter {
		return false
	}
	return i.spec.DownFor <= 0 || n < i.spec.DownAfter+i.spec.DownFor
}

// gate makes the fault decision for one delivery: it advances the
// call counter and PRNG under the lock, then sleeps any injected
// latency outside it. It returns whether the call should be delivered
// twice, or the injected failure.
func (i *Injector) gate(ctx context.Context) (dup bool, err error) {
	i.mu.Lock()
	n := i.calls
	i.calls++
	i.stats.Calls++
	switch {
	case i.downAt(n):
		i.stats.DownCalls++
		err = ErrDown
	case i.spec.TransientEvery > 0 && n%i.spec.TransientEvery == 0,
		i.spec.TransientRate > 0 && i.rng.Float64() < i.spec.TransientRate:
		i.stats.Transients++
		err = errTransient
	case i.spec.DuplicateRate > 0 && i.rng.Float64() < i.spec.DuplicateRate:
		i.stats.Duplicates++
		dup = true
	}
	var delay time.Duration
	if err == nil && i.spec.Latency > 0 {
		delay = i.spec.Latency
		if i.spec.LatencySigma > 0 {
			// Log-normal around the median: exp(σ·N(0,1)) has median 1.
			delay = time.Duration(float64(delay) * math.Exp(i.spec.LatencySigma*i.rng.NormFloat64()))
		}
		if f := i.spec.SlowFactor; f > 1 {
			delay = time.Duration(float64(delay) * f)
		}
		i.stats.Slowed++
	}
	i.mu.Unlock()
	if delay > 0 {
		if serr := lbs.Sleep(ctx, delay); serr != nil {
			return false, serr
		}
	}
	return dup, err
}

// QueryLR implements lbs.Querier under the fault schedule.
func (i *Injector) QueryLR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	dup, err := i.gate(ctx)
	if err != nil {
		return nil, err
	}
	if dup {
		_, _ = i.inner.QueryLR(ctx, q, filter)
	}
	return i.inner.QueryLR(ctx, q, filter)
}

// QueryLNR implements lbs.Querier: the faulted LR answer, locations
// stripped.
func (i *Injector) QueryLNR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LNRRecord, error) {
	return lbs.LNROf(i.QueryLR(ctx, q, filter))
}

// QueryLRBatch implements lbs.Querier; the batch is one delivery.
func (i *Injector) QueryLRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	dup, err := i.gate(ctx)
	if err != nil {
		return nil, err
	}
	if dup {
		_, _ = i.inner.QueryLRBatch(ctx, pts, filter)
	}
	return i.inner.QueryLRBatch(ctx, pts, filter)
}

// QueryLNRBatch implements lbs.Querier: the faulted LR batch,
// locations stripped.
func (i *Injector) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error) {
	return lbs.LNRBatchOf(i.QueryLRBatch(ctx, pts, filter))
}
