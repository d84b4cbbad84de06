package httpapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// flakyProxy fails the first n requests per endpoint predicate with
// the given status, then delegates to the real server.
type flakyProxy struct {
	inner    http.Handler
	failures atomic.Int64 // remaining failures
	status   int
	body     string
	attempts atomic.Int64
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/meta" { // let construction through
		f.inner.ServeHTTP(w, r)
		return
	}
	f.attempts.Add(1)
	if f.failures.Add(-1) >= 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(f.status)
		_, _ = w.Write([]byte(f.body))
		return
	}
	f.inner.ServeHTTP(w, r)
}

func retryTestBackend(t *testing.T) *lbs.Service {
	t.Helper()
	sc := workload.USASchools(60, 5)
	return lbs.NewService(sc.DB, lbs.Options{K: 3})
}

func TestClientRetriesTransient5xx(t *testing.T) {
	proxy := &flakyProxy{inner: NewServer(retryTestBackend(t)), status: http.StatusServiceUnavailable, body: `{"error":"boom"}`}
	proxy.failures.Store(2)
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	c, err := NewClient(context.Background(), srv.URL, Selection{}, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.QueryLR(context.Background(), geom.Pt(100, 100), nil)
	if err != nil {
		t.Fatalf("query should survive two 503s: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	if got := proxy.attempts.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3 (2 failures + 1 success)", got)
	}
}

func TestClientRetriesTransient429ThenGivesUp(t *testing.T) {
	// A 429 without the budget_exhausted code is transient rate
	// limiting: retried up to MaxAttempts, then surfaced as an error
	// that is NOT ErrBudgetExhausted.
	proxy := &flakyProxy{inner: NewServer(retryTestBackend(t)), status: http.StatusTooManyRequests, body: `{"error":"slow down"}`}
	proxy.failures.Store(1000)
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	c, err := NewClient(context.Background(), srv.URL, Selection{}, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.QueryLR(context.Background(), geom.Pt(100, 100), nil)
	if err == nil {
		t.Fatal("expected an error after exhausting retries")
	}
	if errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("transient 429 must not masquerade as budget exhaustion: %v", err)
	}
	if got := proxy.attempts.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
}

func TestClientDoesNotRetryBudgetExhaustion(t *testing.T) {
	// A real spent budget is permanent: exactly one attempt, mapped to
	// ErrBudgetExhausted.
	svc := lbs.NewService(workload.USASchools(60, 5).DB, lbs.Options{K: 3, Budget: 1})
	counting := &flakyProxy{inner: NewServer(svc)} // failures=0: pure pass-through counter
	srv := httptest.NewServer(counting)
	defer srv.Close()
	c, err := NewClient(context.Background(), srv.URL, Selection{}, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.QueryLR(ctx, geom.Pt(100, 100), nil); err != nil {
		t.Fatalf("first query (within budget): %v", err)
	}
	before := counting.attempts.Load()
	if _, err := c.QueryLR(ctx, geom.Pt(200, 200), nil); !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("over-budget query returned %v, want ErrBudgetExhausted", err)
	}
	if got := counting.attempts.Load() - before; got != 1 {
		t.Errorf("budget-exhausted query retried: %d attempts, want 1", got)
	}
}

func TestClientRetriesBatchPOST(t *testing.T) {
	proxy := &flakyProxy{inner: NewServer(retryTestBackend(t)), status: http.StatusBadGateway, body: `{"error":"upstream"}`}
	proxy.failures.Store(1)
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	c, err := NewClient(context.Background(), srv.URL, Selection{}, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{{X: 100, Y: 100}, {X: 500, Y: 500}}
	answers, err := c.QueryLRBatch(context.Background(), pts, nil)
	if err != nil {
		t.Fatalf("batch should survive a 502: %v", err)
	}
	if len(answers) != 2 || answers[0] == nil || answers[1] == nil {
		t.Fatalf("batch answers incomplete: %v", answers)
	}
}

func TestRetryBackoffBoundedByContext(t *testing.T) {
	proxy := &flakyProxy{inner: NewServer(retryTestBackend(t)), status: http.StatusServiceUnavailable, body: `{"error":"boom"}`}
	proxy.failures.Store(1000)
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	c, err := NewClient(context.Background(), srv.URL, Selection{}, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	// The deadline falls inside the first backoff, which waits at least
	// retryBase/2: a loop that honors ctx ends there, with the deadline
	// as its cause. One that slept through its backoffs regardless
	// would take at least their shortest total, retryBase/2 + retryBase.
	ctx, cancel := context.WithTimeout(context.Background(), retryBase/5)
	defer cancel()
	start := time.Now()
	_, err = c.QueryLR(ctx, geom.Pt(100, 100), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context deadline", err)
	}
	if elapsed := time.Since(start); elapsed >= retryBase/2+retryBase {
		t.Fatalf("retry loop ignored the context deadline: took %v", elapsed)
	}
}
