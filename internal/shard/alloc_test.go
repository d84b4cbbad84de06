package shard

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/lbs"
	"repro/internal/workload"
)

// TestInlineMembersAllocateLikeZeroResilience is the allocation
// contract of the inline member path: with in-process (lbs.NonBlocking)
// members, a router under DefaultResilience — deadline, retries and
// breaker armed — allocates exactly as much per QueryLR as the same
// federation under the zero Resilience, on single-owner points and on
// points near shard borders that fan out to several members. No
// goroutine, timer or deadline context is built per member call.
func TestInlineMembersAllocateLikeZeroResilience(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	db := workload.USASchools(2000, 5).DB
	parts := Partition(db, 4)
	opts := lbs.Options{K: 10}
	def, err := FromPartsWrapped(parts, opts, DefaultResilience(), nil)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := FromPartsWrapped(parts, opts, Resilience{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var single, fanned int
	for i, q := range testPoints(rand.New(rand.NewSource(4)), db, parts, 40) {
		before := def.Stats().Upstream
		if _, err := def.QueryLR(ctx, q, nil); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if def.Stats().Upstream-before == 1 {
			single++
		} else {
			fanned++
		}
		got := testing.AllocsPerRun(20, func() { _, _ = def.QueryLR(ctx, q, nil) })
		want := testing.AllocsPerRun(20, func() { _, _ = zero.QueryLR(ctx, q, nil) })
		if got != want {
			t.Fatalf("point %d (%v): %v allocs/query under DefaultResilience, %v under the zero Resilience", i, q, got, want)
		}
	}
	if single == 0 || fanned == 0 {
		t.Fatalf("points cover %d single-owner and %d fan-out queries; need both", single, fanned)
	}
}
