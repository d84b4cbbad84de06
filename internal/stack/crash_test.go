package stack

import (
	"context"
	"testing"

	"repro/internal/live"
)

// TestBuildCrashRestartServesNoStaleCache: a graceful Close snapshots
// the answer cache at the live epoch it closes at. A later run that
// mutates and then dies without Close leaves that snapshot behind
// while its write-ahead log carries the mutation forward, so the next
// start replays the log past the snapshot's epoch and must serve cold
// rather than answer from the snapshot.
func TestBuildCrashRestartServesNoStaleCache(t *testing.T) {
	s := base()
	s.Live, s.CacheSize, s.DataDir = true, 256, t.TempDir()
	ctx := context.Background()
	_, pts := answerPoints(t)

	first, err := s.Build(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if _, err := first.Querier.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm start, delete the nearest tuple to a cached point, then
	// abandon the stack without Close: a crash.
	warm, err := s.Build(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.restored == 0 {
		t.Fatal("the warm start restored no cache entries")
	}
	recs, err := warm.Querier.QueryLR(ctx, pts[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := recs[0].ID
	if r := warm.Mutator.Apply(ctx, []live.Op{{Kind: live.OpDelete, ID: victim}}); r[0].Err != nil {
		t.Fatal(r[0].Err)
	}

	restarted, err := s.Build(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	d := restarted.Mutator.(*live.Database)
	for _, p := range pts {
		got, err := restarted.Querier.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if r.ID == victim {
				t.Fatalf("after crash restart: deleted tuple %d still answered at %v (live epoch %d, %d cache entries restored)", victim, p, d.Epoch(), restarted.restored)
			}
		}
		want, err := d.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameLR(t, "after crash restart", got, want)
	}
}
