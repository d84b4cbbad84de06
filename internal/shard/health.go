package shard

// health.go — the per-member health machinery of a resilient Router:
// the consecutive-failure circuit breaker that health-gates routing.

import (
	"sync"
	"time"
)

// Resilience configures the Router's fault-tolerance: per-shard call
// deadlines, bounded retry of transient failures and the per-shard
// circuit breaker. The zero value disables everything — the
// pre-resilience scatter behavior plus degraded-mode merging. Every
// router constructor takes one explicitly; DefaultResilience is the
// production choice.
type Resilience struct {
	// ShardTimeout bounds waiting on each member attempt that can
	// block: a wedged member costs at most this long before it is
	// treated as failed. In-process members (lbs.NonBlocking) cannot
	// wedge; they answer inline on the caller's goroutine, outside the
	// deadline. 0 = no deadline.
	ShardTimeout time.Duration

	// MaxRetries re-issues a member call up to this many extra times
	// when it fails transiently (lbs.IsTransient). Retries re-use the
	// already-reserved logical budget unit — the meter is charged
	// once per answered query, never per attempt. 0 = no retries.
	MaxRetries int
	// RetryBase seeds the exponential backoff between retries;
	// RetryMax caps it. Waits are uniformly jittered in [d/2, d].
	RetryBase time.Duration
	RetryMax  time.Duration

	// BreakerThreshold opens a shard's breaker after this many
	// consecutive failed calls; an open shard is routed around
	// (ownership moves to the nearest healthy region, fan-outs skip
	// it and mark the answer partial). 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long a breaker stays open before it
	// half-opens and admits a single probe call: a successful probe
	// closes it, a failed one re-opens it for another cooldown.
	BreakerCooldown time.Duration
}

// DefaultResilience is the production failure handling: 10 s shard
// deadline, two transient retries with 2 ms–250 ms jittered backoff,
// breaker at 5 consecutive failures with a 1 s cooldown.
func DefaultResilience() Resilience {
	return Resilience{
		ShardTimeout:     10 * time.Second,
		MaxRetries:       2,
		RetryBase:        2 * time.Millisecond,
		RetryMax:         250 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Second,
	}
}

// BreakerState is a shard breaker's observable state.
type BreakerState string

const (
	// BreakerClosed: healthy, calls flow.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: routed around until the cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: cooldown elapsed (or a probe is in flight) —
	// the next eligible call is a probe.
	BreakerHalfOpen BreakerState = "half-open"
)

// shardHealth tracks one member's breaker.
type shardHealth struct {
	mu sync.Mutex

	open     bool
	probing  bool // a half-open probe is in flight
	openedAt time.Time
	fails    int // consecutive failures while closed

	// Cumulative counters for Stats.
	failures int64
	opens    int64
}

// state derives the observable breaker state at time now.
func (h *shardHealth) state(now time.Time, cooldown time.Duration) BreakerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stateLocked(now, cooldown)
}

func (h *shardHealth) stateLocked(now time.Time, cooldown time.Duration) BreakerState {
	if !h.open {
		return BreakerClosed
	}
	if h.probing || !now.Before(h.openedAt.Add(cooldown)) {
		return BreakerHalfOpen
	}
	return BreakerOpen
}

// admit decides whether a call to this member may proceed now.
// Closed → yes. Open within the cooldown → no. Half-open → one probe
// at a time: the first caller gets probe=true, the rest are refused
// until the probe settles.
func (h *shardHealth) admit(now time.Time, cooldown time.Duration) (ok, probe bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.open {
		return true, false
	}
	if h.probing || now.Before(h.openedAt.Add(cooldown)) {
		return false, false
	}
	h.probing = true
	return true, true
}

// ownable reports whether this member may be chosen as a query's
// owner outright: only closed breakers. A half-open member is probed
// through fan-out calls, where its failure degrades the answer instead
// of failing the query crisply — or, when no breaker is closed at all,
// as a probe owner (see Router.pickOwner).
func (h *shardHealth) ownable() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.open
}

// releaseProbe hands back an admitted-but-unused probe slot (e.g. a
// batch scatter that found no positions to probe with, or a probe
// aborted by caller cancellation before it said anything about the
// member's health).
func (h *shardHealth) releaseProbe() {
	h.mu.Lock()
	h.probing = false
	h.mu.Unlock()
}

// snapshot reports the observable state plus cumulative counters.
func (h *shardHealth) snapshot(now time.Time, cooldown time.Duration) (BreakerState, int64, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stateLocked(now, cooldown), h.failures, h.opens
}

// onSuccess records a successful call: a probe success (or any
// success) closes the breaker and resets the failure streak.
func (h *shardHealth) onSuccess() {
	h.mu.Lock()
	h.open = false
	h.probing = false
	h.fails = 0
	h.mu.Unlock()
}

// onFailure records a failed availability-class call. A failed probe
// re-opens immediately; while closed, the consecutive-failure count
// trips the breaker at threshold. threshold ≤ 0 disables tripping.
func (h *shardHealth) onFailure(probe bool, threshold int, now time.Time) {
	h.mu.Lock()
	h.failures++
	if probe {
		h.probing = false
		h.openedAt = now
		h.opens++
		h.mu.Unlock()
		return
	}
	if h.open {
		h.mu.Unlock()
		return
	}
	h.fails++
	if threshold > 0 && h.fails >= threshold {
		h.open = true
		h.openedAt = now
		h.opens++
	}
	h.mu.Unlock()
}
