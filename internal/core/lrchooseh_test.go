package core

import (
	"context"
	"maps"
	"testing"

	"repro/internal/cell"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// TestLRStatsSnapshotIsolated requires Stats to return a snapshot: the
// AdaptiveHChosen histogram it hands out must neither follow later
// samples nor let a caller's writes reach the aggregator's own counts.
func TestLRStatsSnapshotIsolated(t *testing.T) {
	db := smallService2(300, 101)
	svc := lbs.NewService(db, lbs.Options{K: 5})
	opts := DefaultLROptions(7)
	opts.Lambda0Frac = 0.05
	agg := NewLRAggregator(svc, opts)
	ctx := context.Background()
	if _, err := agg.Run(ctx, []Aggregate{Count()}, WithMaxSamples(20)); err != nil {
		t.Fatal(err)
	}
	snap := agg.Stats()
	want := maps.Clone(snap.AdaptiveHChosen)
	if len(want) == 0 {
		t.Fatal("adaptive choice never exercised")
	}
	if _, err := agg.Run(ctx, []Aggregate{Count()}, WithMaxSamples(20)); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(snap.AdaptiveHChosen, want) {
		t.Errorf("snapshot histogram moved with later samples: %v, taken as %v", snap.AdaptiveHChosen, want)
	}
	live := maps.Clone(agg.Stats().AdaptiveHChosen)
	snap.AdaptiveHChosen[1] += 1000
	if got := agg.Stats().AdaptiveHChosen; !maps.Equal(got, live) {
		t.Errorf("writing to a snapshot changed the aggregator's histogram: %v, want %v", got, live)
	}
}

// TestChooseHNoAllocs requires the adaptive-h rule to allocate nothing
// on a warmed schools-50k aggregator when the tuple cannot contribute
// (rank ≥ h), both on the top-1 shortcut and when the history complex
// grows past level 2: every level is rebuilt in its reused complex and
// no seed is copied out.
func TestChooseHNoAllocs(t *testing.T) {
	const k = 10
	sc := workload.USASchools(50000, 7)
	svc := lbs.NewService(sc.DB, lbs.Options{K: k})
	agg := NewLRAggregator(svc, DefaultLROptions(1))
	if _, err := agg.Run(context.Background(), []Aggregate{Count()}, WithMaxSamples(50)); err != nil {
		t.Fatal(err)
	}
	lambda0 := agg.opts.Lambda0Frac * agg.bound.Area()
	sites := agg.hist.Sites()
	shortcut, grown := -1, -1
	for i, s := range sites {
		if shortcut >= 0 && grown >= 0 {
			break
		}
		top1 := cell.BuildFromSites(agg.boundPoly, 1, s.Loc, sites)
		if top1.Area() > lambda0 {
			if shortcut < 0 {
				shortcut = i
			}
			continue
		}
		if h, _ := agg.chooseH(s.Loc, k-1); grown < 0 && h >= 2 && h < k-1 {
			grown = i
		}
	}
	if shortcut < 0 || grown < 0 {
		t.Fatalf("no tuple for both paths in a %d-site history (shortcut %d, grown %d)", len(sites), shortcut, grown)
	}
	for _, c := range []struct {
		name string
		site int
		rank int
	}{
		{"top1-shortcut", shortcut, 1},
		{"level-growth", grown, k - 1},
	} {
		loc := sites[c.site].Loc
		var h int
		var seed *cell.Complex
		allocs := testing.AllocsPerRun(20, func() { h, seed = agg.chooseH(loc, c.rank) })
		if seed != nil || h > c.rank {
			t.Fatalf("%s: chose h=%d with a seed at rank %d, want a non-contributing rank", c.name, h, c.rank)
		}
		if allocs != 0 {
			t.Errorf("%s: chooseH allocated %v times per call, want 0", c.name, allocs)
		}
	}
}
