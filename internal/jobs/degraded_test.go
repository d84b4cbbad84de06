package jobs

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/lbs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// federatedBackend builds a 4-shard federation with a fault injector
// per member and a one-failure breaker, for the degraded-job
// acceptance scenario.
func federatedBackend(t *testing.T) (*shard.Router, []*faults.Injector) {
	t.Helper()
	db := workload.USASchools(300, 9).DB
	res := shard.Resilience{BreakerThreshold: 1, BreakerCooldown: time.Hour}
	inj := make([]*faults.Injector, 4)
	router, err := shard.FromPartsWrapped(shard.Partition(db, 4), lbs.Options{K: 5}, res,
		func(i int, q lbs.Querier) lbs.Querier {
			inj[i] = faults.New(q, faults.Spec{Seed: int64(i)})
			return inj[i]
		})
	if err != nil {
		t.Fatal(err)
	}
	return router, inj
}

// TestJobCompletesDegradedWithShardDown is the acceptance scenario of
// the fault-tolerance layer: one (non-owner) federation member is
// dead, its breaker is open, and a federated LR estimation job still
// runs to done — recording how many of its samples were drawn from
// the partial federation, in both the job view counters and the trace.
func TestJobCompletesDegradedWithShardDown(t *testing.T) {
	router, inj := federatedBackend(t)
	ctx := context.Background()

	// Kill shard 3 and poke one query it owns: the crisp owner failure
	// trips its one-failure breaker, and from here on the router routes
	// around the corpse, answering degraded.
	inj[3].Kill()
	pokePt := router.Stats().Shards[3].Region.Center()
	if _, err := router.QueryLR(ctx, pokePt, nil); !errors.Is(err, shard.ErrOwnerDown) {
		t.Fatalf("poke: want ErrOwnerDown, got %v", err)
	}
	if st := router.Stats(); st.Shards[3].State != shard.BreakerOpen {
		t.Fatalf("breaker state %s after owner failure, want open", st.Shards[3].State)
	}

	m := NewManager(router, ManagerOptions{})
	j, err := m.Create(Spec{
		Method:     MethodLR,
		Seed:       5,
		Aggregates: []core.AggSpec{core.CountSpec()},
		Options:    RunOptions{MaxQueries: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitSettled(t, j)
	if v.State != StateDone {
		t.Fatalf("state %s (err %q), want done — degraded answers must not fail the job", v.State, v.Error)
	}
	if v.DegradedSamples == 0 || v.DegradedQueries == 0 {
		t.Fatalf("degraded accounting empty: samples=%d queries=%d (federation partial=%d)",
			v.DegradedSamples, v.DegradedQueries, router.Stats().Partial)
	}
	if v.DegradedSamples > v.Samples {
		t.Fatalf("degraded samples %d exceed total %d", v.DegradedSamples, v.Samples)
	}
	if v.Results[0].DegradedSamples != v.DegradedSamples {
		t.Fatalf("result view degraded=%d, job view %d", v.Results[0].DegradedSamples, v.DegradedSamples)
	}

	// The trace marks which samples were contaminated.
	events, _, _, _ := j.TraceFrom(0)
	marked := 0
	for _, e := range events {
		if e.Degraded {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no trace event marked degraded")
	}
}

// TestJobFailsCrisplyWithOwnerDown pins the other half of the
// degraded-mode contract: with the breaker disabled, a dead member
// stays the owner of its region, and a job whose samples need it
// fails with the typed owner-down error instead of fabricating
// estimates.
func TestJobFailsCrisplyWithOwnerDown(t *testing.T) {
	db := workload.USASchools(300, 9).DB
	inj := make([]*faults.Injector, 4)
	router, err := shard.FromPartsWrapped(shard.Partition(db, 4), lbs.Options{K: 5},
		shard.Resilience{}, // breaker off
		func(i int, q lbs.Querier) lbs.Querier {
			inj[i] = faults.New(q, faults.Spec{Seed: int64(i)})
			return inj[i]
		})
	if err != nil {
		t.Fatal(err)
	}
	inj[3].Kill()
	m := NewManager(router, ManagerOptions{})
	j, err := m.Create(Spec{
		Method:     MethodLR,
		Seed:       5,
		Aggregates: []core.AggSpec{core.CountSpec()},
		Options:    RunOptions{MaxQueries: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitSettled(t, j)
	if v.State != StateFailed {
		t.Fatalf("state %s, want failed (owner down is crisp)", v.State)
	}
	if v.Error == "" || !errors.Is(j.err, shard.ErrOwnerDown) {
		t.Fatalf("job error %q (%v), want owner-down", v.Error, j.err)
	}
}
