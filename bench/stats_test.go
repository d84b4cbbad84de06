package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {50000, 99.9},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got != 50 {
			if beyond := c.n - 1 - rankIndex(c.n, got); beyond < 10 {
				t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 1: 1} {
		if got := percentile(append([]float64(nil), xs...), p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

func TestMedianAveragesMiddlePair(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 1,3,5 = %v, want 3", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{30, 60}, // overlaps the next one: the union counts once
		{10, 40},
		{90, 120}, // clipped to the parent
		{200, 300},
	}
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestAttributionSumsToRequest(t *testing.T) {
	// handler [0,100] → cache [10,90] → shard [20,80] → two concurrent
	// members [30,60] and [40,70]: the layers' parts must add up to the
	// handler's 100 with the members counted once (30..70).
	tree := newSpanTree([]span{
		{Layer: layerHandler, Parent: -1, Start: 0, End: 100},
		{Layer: layerCache, Parent: 0, Start: 10, End: 90},
		{Layer: layerShard, Parent: 1, Start: 20, End: 80},
		{Layer: layerLeaf, Parent: 2, Start: 30, End: 60},
		{Layer: layerLeaf, Parent: 2, Start: 40, End: 70},
	})
	acc := map[layer]int64{}
	tree.attribute(0, acc)
	want := map[layer]int64{layerHandler: 20, layerCache: 20, layerShard: 20, layerLeaf: 40}
	var sum int64
	for l, v := range acc {
		sum += v
		if v != want[l] {
			t.Errorf("layer %d: %d, want %d", l, v, want[l])
		}
	}
	if sum != 100 {
		t.Errorf("attributed %d of 100", sum)
	}
}

func TestLadderInterpolation(t *testing.T) {
	rungs := []rung{
		{Rate: 1000, MS: 0.5, Pass: true},
		{Rate: 2000, MS: 1.0, Pass: true},
		{Rate: 3000, MS: 5.0, Pass: false},
	}
	// The limit (2 ms) sits a quarter of the way from 1.0 to 5.0.
	if got, ok := ladderMax(rungs, 2); !ok || math.Abs(got-2250) > 1e-9 {
		t.Errorf("ladderMax = %v, %v; want 2250, true", got, ok)
	}
	if got, ok := ladderMax(rungs[:2], 2); ok || got != 2000 {
		t.Errorf("never failing: %v, %v; want 2000 as an unresolved bound", got, ok)
	}
	if got, ok := ladderMax(rungs[2:], 2); ok || got != 0 {
		t.Errorf("failing at once: %v, %v; want 0, false", got, ok)
	}
}
