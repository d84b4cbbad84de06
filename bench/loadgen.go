package main

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// failAfter is the request time past which an operation counts as
// failed, and so as missing every latency limit.
const failAfter = time.Second

// measureWindows is how many windows the measured phase is split into
// for calibrating the child's CPU time (see calibratedCPU): short enough
// to follow the machine's speed, long enough (1.5 s at 15 s) for
// thousands of reference batches each.
const measureWindows = 10

// sample is one operation as the load generator saw it.
type sample struct {
	idx int
	// lat runs from when the op was due to when it completed; a failed
	// op reads at least failAfter.
	lat time.Duration
	// lag is the generator's own lateness: send time minus the later of
	// the due time and the moment its worker became free.
	lag    time.Duration
	failed bool
}

func (s sample) ms() float64 { return float64(s.lat) / 1e6 }

// poissonArrivals draws arrival offsets of a Poisson process at rate
// per second over d.
func poissonArrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*1e9))
	}
	return out
}

// openLoop runs op(i) at start+due[i] from `workers` goroutines that
// share one queue in due order: a worker takes the next op, sleeps
// until it is due, and runs it. When every worker is busy, due ops
// wait, and each one's latency from its due time counts the wait — a
// stalled response delays the ops behind it in the measurement exactly
// as it does for users (no coordinated omission). op returns the
// instant its response was complete, so checking the answer afterwards
// is not timed. openLoop returns the samples of the ops that ran, in
// due order.
func openLoop(ctx context.Context, start time.Time, due []time.Duration, workers int, op func(ctx context.Context, i int) (time.Time, error)) []sample {
	out := make([]sample, len(due))
	ran := make([]bool, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPacer()
			defer p.release()
			free := start
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				at := start.Add(due[i])
				p.sleepUntil(at)
				sent := time.Now()
				done, err := op(ctx, i)
				if done.IsZero() {
					done = time.Now()
				}
				out[i] = measure(i, at, free, sent, done, err != nil || done.Sub(sent) > failAfter)
				ran[i] = true
				free = time.Now()
			}
		}()
	}
	wg.Wait()
	kept := out[:0]
	for i, s := range out {
		if ran[i] {
			kept = append(kept, s)
		}
	}
	return kept
}

// closedLoop runs op back to back from `workers` goroutines until the
// deadline passes: each worker starts its next op when its previous
// one completes, and the op in flight at the deadline still finishes.
// Ops are numbered in start order across workers and op learns which
// worker runs it; the samples come back in op order.
func closedLoop(ctx context.Context, workers int, until time.Time, op func(ctx context.Context, worker, i int) error) []sample {
	var mu sync.Mutex
	var out []sample
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for ctx.Err() == nil && time.Now().Before(until) {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				err := op(ctx, w, i)
				done := time.Now()
				// A closed-loop op is due the moment its worker is free.
				s := measure(i, free, free, sent, done, err != nil)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
				free = done
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].idx < out[b].idx })
	return out
}

func measure(i int, due, free, sent, done time.Time, failed bool) sample {
	ready := due
	if free.After(ready) {
		ready = free
	}
	s := sample{idx: i, lat: done.Sub(due), lag: sent.Sub(ready), failed: failed}
	if failed && s.lat < failAfter {
		s.lat = failAfter
	}
	return s
}

// latencies returns the samples' latencies in milliseconds.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms()
	}
	return out
}

func failures(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.failed {
			n++
		}
	}
	return n
}
