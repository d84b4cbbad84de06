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

// The client's retry policy bounds its automatic retries of transient
// failures: transport errors, 5xx responses, and 429 responses that do
// NOT carry the budget_exhausted code (a spent budget is permanent and
// surfaces immediately as lbs.ErrBudgetExhausted). Only idempotent
// requests retry — GETs and the batch POSTs, whose replay costs budget
// only for answers actually delivered; job submission never retries.
//
// A request is tried retryAttempts times in all. Backoff is
// exponential from retryBase, capped at retryMax, with uniform jitter
// in [1/2, 1] of the computed delay so synchronized clients spread
// out. Every wait honors the request context.
const (
	retryAttempts = 3
	retryBase     = 100 * time.Millisecond
	retryMax      = 2 * time.Second
)

// retryBackoff returns the jittered wait before the given retry
// (attempt ≥ 1).
func retryBackoff(attempt int) time.Duration {
	return lbs.Backoff(retryBase, retryMax, attempt, rand.Int63n)
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
	return c.doAttempts(ctx, method, url, body, retryAttempts)
}

// doOnce is do without retries, for non-idempotent requests.
func (c *Client) doOnce(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	return c.doAttempts(ctx, method, url, body, 1)
}

func (c *Client) doAttempts(ctx context.Context, method, url string, body []byte, attempts int) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := lbs.Sleep(ctx, retryBackoff(attempt)); err != nil {
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
