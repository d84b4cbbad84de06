package lbs

import (
	"testing"
	"time"
)

// TestBackoffShape pins the retry wait both retry layers share:
// base·2^(a−1) capped at max, jittered within [d/2, d] by the caller's
// source.
func TestBackoffShape(t *testing.T) {
	const base, max = 10 * time.Millisecond, 50 * time.Millisecond
	lo := func(int64) int64 { return 0 }
	hi := func(n int64) int64 { return n - 1 }
	for a, d := range map[int]time.Duration{1: 10, 2: 20, 3: 40, 4: 50, 9: 50} {
		d *= time.Millisecond
		if got := Backoff(base, max, a, lo); got != d/2 {
			t.Errorf("attempt %d: lowest jitter %v, want %v", a, got, d/2)
		}
		if got := Backoff(base, max, a, hi); got != d {
			t.Errorf("attempt %d: highest jitter %v, want %v", a, got, d)
		}
	}
}
