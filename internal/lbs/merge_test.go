package lbs

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/geom"
)

// rankedList returns a (RankDist, ID)-ranked candidate list of length
// up to want, as a member service answers it. Locations sit on a
// coarse grid, so distance ties are frequent and the ID tie-break
// decides the order.
func rankedList(rng *rand.Rand, norm Options, q geom.Point, want int) []LRRecord {
	n := rng.Intn(2*want + 1)
	recs := make([]LRRecord, n)
	for i, id := range rng.Perm(4 * (n + 1))[:n] {
		loc := geom.Pt(float64(rng.Intn(5)), float64(rng.Intn(5)))
		recs[i] = LRRecord{
			ID:    int64(id),
			Loc:   loc,
			Dist:  q.Dist(loc),
			Attrs: map[string]float64{"pop": float64(rng.Intn(3))},
		}
	}
	slices.SortFunc(recs, func(a, b LRRecord) int {
		return cmp.Or(cmp.Compare(norm.RankDist(q, &a), norm.RankDist(q, &b)), cmp.Compare(a.ID, b.ID))
	})
	if len(recs) > want {
		recs = recs[:want]
	}
	return recs
}

// TestMergeRankedSoleListShortcut pins the one-list shortcut of
// MergeRanked to the general merge: over random ranked lists with
// distance ties, under distance and prominence rank and both metrics,
// merging one list answers exactly what the general path (the same
// list plus an empty second source) answers.
func TestMergeRankedSoleListShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, metric := range []geo.Metric{geo.Euclidean, geo.Haversine} {
		for _, rank := range []RankMode{RankByDistance, RankByProminence} {
			for trial := 0; trial < 300; trial++ {
				norm := Options{
					K: 1 + rng.Intn(6), Metric: metric, Rank: rank,
					ProminenceAttr: "pop", ProminenceWeight: 0.5,
				}
				q := geom.Pt(float64(rng.Intn(9))/2, float64(rng.Intn(9))/2)
				// Members may answer more than the candidate count.
				l := rankedList(rng, norm, q, norm.CandidateCount()+rng.Intn(3))
				got := MergeRanked(q, norm, l)
				want := MergeRanked(q, norm, l, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("metric=%v rank=%v trial %d: sole list %v, general merge %v", metric, rank, trial, got, want)
				}
				if cap(got) != len(got) {
					t.Fatalf("metric=%v rank=%v trial %d: answer len %d cap %d, appends would write into the member's list",
						metric, rank, trial, len(got), cap(got))
				}
			}
		}
	}
	if got := MergeRanked(geom.Pt(0, 0), Options{K: 3}, nil); got == nil {
		t.Fatal("a nil sole list merged to a nil answer; batch callers read nil as unanswered")
	}
}
