package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for a timing's reported tail, in
// decreasing order.
var tailPercentiles = []float64{99.9, 99, 90, 75}

// rankIndex is the nearest-rank position of percentile p among n
// ascending samples. The epsilon keeps exact ranks exact: 99.9/100 is
// not representable and would round 99.9% of 10000 up past 9990.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentile returns the highest candidate percentile that leaves
// at least 10 samples beyond it among n samples, or 50 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-1-rankIndex(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank percentile p of xs (which it
// sorts in place); 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankIndex(len(xs), p)]
}

// median is the middle of xs, or the mean of the middle two for an even
// count (as Python's statistics.median); 0 for an empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method, the one Python's statistics.quantiles(xs, n=4)
// uses by default. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(j int) float64 {
		m := j * (n + 1)
		i := m / 4
		frac := float64(m%4) / 4
		switch {
		case i < 1:
			return s[0]
		case i >= n:
			return s[n-1]
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return at(1), at(3)
}

// interval is a span of time in nanoseconds, [start, end).
type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by any of the children,
// which may overlap each other (concurrent shard members) and are
// clipped to the parent.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// covered is the length of the union of children within parent.
func covered(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
	var total int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			total += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// rung is one step of a rate ladder: the offered rate and the latency
// percentile the ladder limits, measured at it.
type rung struct {
	Rate float64
	MS   float64
	Pass bool
}

// ladderMax returns the highest rate meeting the latency limit: linear
// interpolation of latency against rate between the last passing rung
// and the first failing one. A ladder that never fails returns its last
// rate (a lower bound, ok=false); one that fails at once returns 0.
func ladderMax(rungs []rung, limitMS float64) (rate float64, ok bool) {
	for i, r := range rungs {
		if r.Pass {
			continue
		}
		if i == 0 {
			return 0, false
		}
		lo := rungs[i-1]
		if r.MS <= lo.MS {
			return lo.Rate, true
		}
		f := (limitMS - lo.MS) / (r.MS - lo.MS)
		return lo.Rate + math.Min(math.Max(f, 0), 1)*(r.Rate-lo.Rate), true
	}
	if len(rungs) == 0 {
		return 0, false
	}
	return rungs[len(rungs)-1].Rate, false
}
