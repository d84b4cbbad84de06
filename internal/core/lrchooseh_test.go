package core

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
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
	opts.FixedH = 0
	opts.Lambda0Frac = 0.05
	agg := NewLRAggregator(svc, opts)
	ctx := context.Background()
	if _, err := agg.Run(ctx, aggsOf(t, CountSpec()), WithMaxSamples(20)); err != nil {
		t.Fatal(err)
	}
	snap := agg.Stats()
	want := maps.Clone(snap.AdaptiveHChosen)
	if len(want) == 0 {
		t.Fatal("adaptive choice never exercised")
	}
	if _, err := agg.Run(ctx, aggsOf(t, CountSpec()), WithMaxSamples(20)); err != nil {
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
// (rank ≥ h): when the top-1 build decides λ_1 > λ0, and when the
// history complex grows past level 2. Every complex is rebuilt in its
// reused storage and no seed is copied out.
func TestChooseHNoAllocs(t *testing.T) {
	const k = 10
	sc := workload.USASchools(50000, 7)
	svc := lbs.NewService(sc.DB, lbs.Options{K: k})
	opts := DefaultLROptions(1)
	opts.FixedH = 0
	agg := NewLRAggregator(svc, opts)
	if _, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(50)); err != nil {
		t.Fatal(err)
	}
	lambda0 := agg.opts.Lambda0Frac * agg.bound.Area()
	sites := agg.hist.Sites()
	// Classify the returned tuples of fresh queries, which chooseH sees
	// before their answer joins the history, by the path chooseH takes
	// at rank 1 (rank k−1 for level growth), with the cell primitives it
	// calls.
	const (
		fullBuild = iota
		growth
	)
	names := []string{"top1 full build", "level-growth"}
	found := make(map[int]geom.Point)
	var order cell.Order
	top1 := cell.New(agg.boundPoly, 1)
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 1000 && len(found) < len(names); q++ {
		recs, err := svc.QueryLR(context.Background(), geom.RandomInRect(rng, agg.bound), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			order.Reset(r.Loc, sites)
			top1.Reset()
			order.Insert(top1)
			path := growth
			if top1.Area() > lambda0 {
				path = fullBuild
			}
			if path == growth {
				if h, _ := agg.chooseH(r.Loc, k-1); h < 2 || h >= k-1 {
					continue
				}
			}
			if _, ok := found[path]; !ok {
				found[path] = r.Loc
			}
		}
	}
	for path := range names {
		loc, ok := found[path]
		if !ok {
			t.Fatalf("%s: no returned tuple takes this path over a %d-site history", names[path], len(sites))
		}
		rank := 1
		if path == growth {
			rank = k - 1
		}
		var h int
		var seed *cell.Complex
		allocs := testing.AllocsPerRun(20, func() { h, seed = agg.chooseH(loc, rank) })
		if seed != nil || h > rank {
			t.Fatalf("%s: chose h=%d with a seed at rank %d, want a non-contributing rank", names[path], h, rank)
		}
		if allocs != 0 {
			t.Errorf("%s: chooseH allocated %v times per call, want 0", names[path], allocs)
		}
	}
}

// TestFixedHSeedMatchesLevelCopy requires the fixed-h seed, which
// chooseH builds at level h with its area re-summed, to equal in faces
// and Area() bits the top-h faces copied out of a top-(h+1) build over
// the history (WithK), on a warmed schools-50k aggregator at h = 1 and
// h = 3.
func TestFixedHSeedMatchesLevelCopy(t *testing.T) {
	const k = 10
	sc := workload.USASchools(50000, 7)
	for _, h := range []int{1, 3} {
		svc := lbs.NewService(sc.DB, lbs.Options{K: k})
		opts := DefaultLROptions(2)
		opts.FixedH = h
		agg := NewLRAggregator(svc, opts)
		if _, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(40)); err != nil {
			t.Fatal(err)
		}
		var order cell.Order
		rng := rand.New(rand.NewSource(5))
		for q := 0; q < 20; q++ {
			recs, err := svc.QueryLR(context.Background(), geom.RandomInRect(rng, agg.bound), nil)
			if err != nil {
				t.Fatal(err)
			}
			loc := recs[0].Loc
			got, seed := agg.chooseH(loc, 0)
			if got != h || seed == nil {
				t.Fatalf("h=%d: chooseH chose h=%d (seed %v)", h, got, seed != nil)
			}
			order.Reset(loc, agg.hist.Sites())
			level := cell.New(agg.boundPoly, h+1)
			order.Insert(level)
			want := level.WithK(h)
			if seed.K() != h || !sameComplexFaces(seed, want) ||
				math.Float64bits(seed.Area()) != math.Float64bits(want.Area()) {
				t.Fatalf("h=%d query %d: seed (%d faces, area %v) differs from the level copy (%d faces, area %v)",
					h, q, seed.NumFaces(), seed.Area(), want.NumFaces(), want.Area())
			}
			agg.s.free(seed)
		}
		agg.release()
	}
}

// sameComplexFaces reports whether two complexes hold the same faces,
// in order, with equal counts, polygons and area bits.
func sameComplexFaces(a, b *cell.Complex) bool {
	fa, fb := a.Faces(), b.Faces()
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i].Count != fb[i].Count || !slices.Equal(fa[i].Poly, fb[i].Poly) ||
			math.Float64bits(fa[i].Area()) != math.Float64bits(fb[i].Area()) {
			return false
		}
	}
	return true
}
