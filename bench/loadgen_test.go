package main

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStallAgainstDueTime pins the coordinated-omission
// accounting: one request stalls the only connection for 200 ms, and
// every request that came due meanwhile must carry that wait in its
// latency, measured from when it was due — not just the one stalled
// request, as timing from the send would report.
func TestOpenLoopCountsStallAgainstDueTime(t *testing.T) {
	const stallAt, stall = 50, 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	hc := srv.Client()

	due := make([]time.Duration, 400) // 1 ms apart
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	ss := openLoop(context.Background(), time.Now(), due, 1, func(ctx context.Context, i int) (time.Time, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return time.Time{}, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return time.Time{}, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return time.Now(), resp.Body.Close()
	})
	if len(ss) != len(due) {
		t.Fatalf("%d samples, want %d", len(ss), len(due))
	}
	slow := 0
	var lagged []float64
	for _, s := range ss {
		if s.failed {
			t.Fatalf("op %d failed", s.idx)
		}
		if s.lat > 50*time.Millisecond {
			slow++
		}
		lagged = append(lagged, float64(s.lag)/1e6)
	}
	// Ops due in the first 150 ms of the stall waited more than 50 ms.
	if slow < 100 {
		t.Errorf("%d ops slower than 50 ms, want ≥ 100 (the stall's queue)", slow)
	}
	// Queued ops were sent late because the connection was busy, which
	// is not the generator's own lateness.
	if p50 := percentile(lagged, 50); p50 > 5 {
		t.Errorf("generator lag p50 = %.2f ms, want small", p50)
	}
}

func TestClosedLoopRunsUntilDeadline(t *testing.T) {
	var calls atomic.Int64
	ss := closedLoop(context.Background(), 2, time.Now().Add(50*time.Millisecond), func(_ context.Context, w, i int) error {
		calls.Add(1)
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if int64(len(ss)) != calls.Load() || len(ss) < 4 {
		t.Fatalf("%d samples for %d calls", len(ss), calls.Load())
	}
	for i, s := range ss {
		if s.idx != i {
			t.Fatalf("sample %d has index %d", i, s.idx)
		}
		if s.lat < 5*time.Millisecond {
			t.Errorf("op %d latency %v below its 5 ms of work", i, s.lat)
		}
	}
}

func TestPoissonArrivalsRate(t *testing.T) {
	due := poissonArrivals(rand.New(rand.NewSource(1)), 1000, 10*time.Second)
	if n := len(due); n < 9500 || n > 10500 {
		t.Errorf("%d arrivals in 10 s at 1000/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] <= due[i-1] {
			t.Fatalf("arrivals not increasing at %d", i)
		}
	}
}
