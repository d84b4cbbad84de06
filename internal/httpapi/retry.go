package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/jobs"
	"repro/internal/lbs"
)

// RetryPolicy bounds the client's automatic retries of transient
// failures: transport errors, 5xx responses, and 429 responses that do
// NOT carry the budget_exhausted code (a spent budget is permanent and
// surfaces immediately as lbs.ErrBudgetExhausted). Only idempotent
// requests retry — GETs and the batch POSTs, whose replay costs budget
// only for answers actually delivered; job submission never retries.
//
// Backoff is exponential from BaseDelay, capped at MaxDelay, with
// uniform jitter in [1/2, 1] of the computed delay so synchronized
// clients spread out. Every wait honors the request context.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (1 = no retries).
	// Default 3.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff. Default 100 ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff wait. Default 2 s.
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the policy a new Client starts with.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// NoRetry disables retrying entirely.
func NoRetry() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

// backoff returns the jittered wait before the given retry (attempt ≥ 1).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	base, max := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	return lbs.Backoff(base, max, attempt, rand.Int63n)
}

// retryableStatus reports whether a status is worth retrying; 429 is
// classified separately by doAttempts (only its non-budget flavor
// retries).
func retryableStatus(code int) bool {
	return code >= 500
}

// decodeError drains and closes an error response body.
func decodeError(resp *http.Response) errorResponse {
	var e errorResponse
	_ = json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&e)
	resp.Body.Close()
	return e
}

// do issues one HTTP request with the client's retry policy: transient
// failures (transport errors, 5xx, non-budget 429) are retried with
// jittered exponential backoff bounded by ctx; a budget-exhausted 429
// returns lbs.ErrBudgetExhausted at once. Non-transient error statuses
// (4xx) are returned as responses for the caller to interpret. body
// may be nil; it is re-sent on every attempt.
func (c *Client) do(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	return c.doAttempts(ctx, method, url, body, c.retry.MaxAttempts)
}

// doOnce is do without retries, for non-idempotent requests.
func (c *Client) doOnce(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	return c.doAttempts(ctx, method, url, body, 1)
}

func (c *Client) doAttempts(ctx context.Context, method, url string, body []byte, attempts int) (*http.Response, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := lbs.Sleep(ctx, c.retry.backoff(attempt)); err != nil {
				return nil, fmt.Errorf("httpapi: %s %s: %w (after %v)", method, url, err, lastErr)
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, fmt.Errorf("httpapi: %s %s: %w", method, url, err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("httpapi: %s %s: %w", method, url, err)
			}
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			e := decodeError(resp)
			switch e.Code {
			case codeBudgetExhausted:
				// Permanent: a spent budget never un-spends. Never
				// retried, surfaced as the sentinel at once.
				return nil, lbs.ErrBudgetExhausted
			case codeJobsExhausted:
				// Transient capacity: the job table drains as jobs
				// settle. Retryable, and wrapped so callers can detect
				// the condition (errors.Is(err, jobs.ErrTableFull)).
				lastErr = fmt.Errorf("status 429: %s: %w", e.Error, jobs.ErrTableFull)
			default:
				lastErr = fmt.Errorf("status 429: %s", e.Error)
			}
			continue
		}
		if retryableStatus(resp.StatusCode) {
			e := decodeError(resp)
			lastErr = fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
			continue
		}
		return resp, nil
	}
	// Every failure that reached here was transient (permanent classes
	// returned above); mark it so an outer resilience layer — a
	// federation router with remote members — may retry with its own,
	// longer-horizon policy.
	return nil, lbs.MarkTransient(fmt.Errorf("httpapi: %s %s failed after %d attempts: %w", method, url, attempts, lastErr))
}
