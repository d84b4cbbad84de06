package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/geo"
	"repro/internal/jobs"
	"repro/internal/lbs"
)

// ErrMetricMismatch is returned by Estimate when a spec pinned to a
// metric is submitted through a client whose server advertises a
// different one; the refusal is local, before any network round-trip.
var ErrMetricMismatch = errors.New("httpapi: spec compiled for a different metric than the server runs")

// decodeView decodes a jobs.View response, treating non-2xx statuses
// as errors.
func decodeView(resp *http.Response) (*jobs.View, error) {
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		e := decodeError(resp)
		return nil, fmt.Errorf("httpapi: job status %d: %s", resp.StatusCode, e.Error)
	}
	var v jobs.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("httpapi: job decode: %w", err)
	}
	return &v, nil
}

// Estimate submits a declarative estimation job (POST /v1/estimate)
// and returns its initial view; the job runs server-side. Batch many
// aggregates into one spec where possible: the server plans the batch
// as one shared sample stream with fused aggregates (core.PlanBatch), so
// N related aggregates cost far less than N jobs; the returned views
// carry per-aggregate results and the compiled plan. Submission
// is not idempotent, so failures that may have created a job (5xx,
// transport errors) are never retried — wrap it yourself if a
// duplicate job is acceptable on your gateway. The one exception is a
// capacity 429 (code=jobs_exhausted): the server provably created
// nothing, the condition clears as running jobs settle, so the client
// waits it out with the policy's backoff. A budget-exhausted 429 is
// permanent and surfaces immediately; errors.Is(err,
// jobs.ErrTableFull) detects a capacity refusal that outlasted every
// attempt.
func (c *Client) Estimate(ctx context.Context, spec jobs.Spec) (*jobs.View, error) {
	if spec.Metric != "" {
		m, err := geo.ParseMetric(spec.Metric)
		if err != nil {
			return nil, fmt.Errorf("httpapi: estimate: %w", err)
		}
		if m != c.metric {
			return nil, fmt.Errorf("%w: spec %s, server %s", ErrMetricMismatch, m, c.metric)
		}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("httpapi: estimate encode: %w", err)
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.doOnce(ctx, http.MethodPost, c.base+"/v1/estimate", body)
		if err != nil {
			if errors.Is(err, jobs.ErrTableFull) && attempt+1 < retryAttempts {
				if serr := lbs.Sleep(ctx, retryBackoff(attempt+1)); serr != nil {
					return nil, fmt.Errorf("httpapi: estimate: %w (after %v)", serr, err)
				}
				continue
			}
			return nil, err
		}
		return decodeView(resp)
	}
}

// Job fetches a job's current view (GET /v1/jobs/{id}), retrying
// transient failures per the client's policy.
func (c *Client) Job(ctx context.Context, id string) (*jobs.View, error) {
	resp, err := c.do(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	return decodeView(resp)
}

// CancelJob cancels a running job (DELETE /v1/jobs/{id}) and returns
// its settled view, whose Results hold the partial estimates of the
// samples completed before the cancel. Canceling is idempotent
// (deleting a finished job returns its final view), so transient
// failures retry like GETs.
func (c *Client) CancelJob(ctx context.Context, id string) (*jobs.View, error) {
	resp, err := c.do(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	return decodeView(resp)
}

// FollowJobTrace streams a job's NDJSON trace (GET
// /v1/jobs/{id}/trace), invoking fn once per event in order, from the
// job's first sample until it settles, fn returns an error, or ctx is
// done. Connection establishment retries per the client's policy; a
// stream broken mid-flight surfaces as an error (re-calling replays
// from the start).
func (c *Client) FollowJobTrace(ctx context.Context, id string, fn func(jobs.TraceEvent) error) error {
	resp, err := c.do(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e := decodeError(resp)
		return fmt.Errorf("httpapi: trace status %d: %s", resp.StatusCode, e.Error)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e jobs.TraceEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("httpapi: trace decode: %w", err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("httpapi: trace stream: %w", err)
	}
	return nil
}

// WaitJob polls a job until it settles (every poll interval; default
// 250 ms when poll ≤ 0) and returns its final view.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*jobs.View, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if v.State.Finished() {
			return v, nil
		}
		if err := lbs.Sleep(ctx, poll); err != nil {
			return nil, err
		}
	}
}
