package shard

// call.go — the resilient member-call pipeline every subquery goes
// through: breaker bookkeeping, a per-attempt deadline that bounds
// wedged members, and bounded jittered retry of transient failures.
// Retries re-use the logical budget unit reserved before the scatter —
// the meter is charged per answered query, never per attempt.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/lbs"
)

// ErrShardTimeout marks a member call abandoned at the ShardTimeout
// deadline (the member may still be grinding; its late answer is
// dropped). Not transient: retrying a wedged member would just burn
// another deadline — the breaker handles persistent wedges.
var ErrShardTimeout = errors.New("shard: member call timed out")

// ErrNoShards is returned when every member's breaker is open: the
// federation has no healthy shard left to own the query.
var ErrNoShards = errors.New("shard: no healthy shard available")

// ErrOwnerDown is the crisp typed failure of a query whose owning
// shard could not answer. Degraded merging covers non-owner members;
// the owner's candidates anchor the fan-out bound, so without them
// the router refuses to fabricate an answer. errors.Is(err,
// ErrOwnerDown) matches through OwnerDownError.
var ErrOwnerDown = errors.New("shard: owner shard unavailable")

// OwnerDownError carries which member failed as the query's owner and
// why.
type OwnerDownError struct {
	Shard int
	Err   error
}

func (e *OwnerDownError) Error() string {
	return fmt.Sprintf("shard: owner shard %d unavailable: %v", e.Shard, e.Err)
}

func (e *OwnerDownError) Unwrap() error { return e.Err }

// Is lets errors.Is(err, ErrOwnerDown) classify the failure without
// callers knowing the concrete type.
func (e *OwnerDownError) Is(target error) bool { return target == ErrOwnerDown }

// availabilityClass reports whether a member failure speaks to the
// member's health (engaging breaker/degraded machinery) rather than
// to the request itself. A spent member budget and a caller that gave
// up are not the shard's fault — those abort the scatter crisply,
// exactly as before the resilience layer existed.
func (r *Router) availabilityClass(ctx context.Context, err error) bool {
	if err == nil || lbs.IsPartial(err) {
		return false
	}
	if errors.Is(err, lbs.ErrBudgetExhausted) {
		return false
	}
	return ctx.Err() == nil
}

// attempt runs f once against member si. A member that cannot block
// (lbs.NonBlocking, e.g. an in-process *lbs.Service), or any member
// when there is no ShardTimeout, is called directly on the caller's
// goroutine: no goroutine, timer or channel, so this path allocates
// exactly what the zero-Resilience scatter does. Any other member runs
// in one goroutine under the deadline: a wedged or silent member costs
// at most ShardTimeout. f must honor its context on remote transports;
// members that ignore it merely keep a goroutine grinding until they
// answer — the caller is unblocked at the deadline either way, which
// is the wedge guarantee.
func attempt[T any](r *Router, ctx context.Context, si int,
	f func(ctx context.Context, q lbs.Querier) (T, error)) (T, error) {

	q := r.shards[si].Querier
	if r.inline[si] || r.res.ShardTimeout <= 0 {
		return f(ctx, q)
	}
	cctx, cancel := context.WithTimeout(ctx, r.res.ShardTimeout)
	defer cancel()
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := f(cctx, q)
		ch <- result{v, err}
	}()
	select {
	case res := <-ch:
		return res.v, res.err
	case <-cctx.Done():
		var zero T
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
		return zero, fmt.Errorf("%w (shard %d after %v)", ErrShardTimeout, si, r.res.ShardTimeout)
	}
}

// backoff is the router's wait before retry attempt a (a ≥ 1):
// lbs.Backoff over the Resilience's RetryBase and RetryMax, jittered
// from math/rand's global source, which is safe for concurrent use.
// A zero RetryBase retries at once.
func (r *Router) backoff(a int) time.Duration {
	base, max := r.res.RetryBase, r.res.RetryMax
	if base <= 0 {
		return 0
	}
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	return lbs.Backoff(base, max, a, rand.Int63n)
}

// memberCall is the full pipeline: attempts with bounded jittered
// retry of transient failures, then breaker bookkeeping on the final
// outcome. A partial annotation from a member (itself a nested
// federation) counts as success — the answer is usable and the
// annotation propagates to the caller.
func memberCall[T any](r *Router, ctx context.Context, si int, probe bool,
	f func(ctx context.Context, q lbs.Querier) (T, error)) (T, error) {

	h := r.health[si]
	attempts := 1 + r.res.MaxRetries
	if probe {
		attempts = 1
	}
	var zero T
	var last error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			r.retries.Add(1)
			if d := r.backoff(a); d > 0 {
				if err := lbs.Sleep(ctx, d); err != nil {
					break
				}
			}
		}
		v, err := attempt(r, ctx, si, f)
		if err == nil || lbs.IsPartial(err) {
			h.onSuccess()
			return v, err
		}
		last = err
		if ctx.Err() != nil || !lbs.IsTransient(err) {
			break
		}
	}
	if r.availabilityClass(ctx, last) {
		h.onFailure(probe, r.res.BreakerThreshold, time.Now())
	} else if probe {
		h.releaseProbe()
	}
	return zero, last
}
