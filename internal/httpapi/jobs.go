package httpapi

// Server-side estimation jobs over the wire: the paper's algorithms as
// a remotely drivable service.
//
//	POST   /v1/estimate        submit a jobs.Spec        → 202 + jobs.View
//	GET    /v1/jobs/{id}       status + partial results  → 200 + jobs.View
//	GET    /v1/jobs/{id}/trace NDJSON jobs.TraceEvent stream (replay+follow)
//	DELETE /v1/jobs/{id}       cancel, wait, partial results → 200 + jobs.View
//	GET    /v1/stats           live service/cache/job counters
//
// The estimation itself runs server-side against the server's backend
// querier; only declarative specs (core.AggSpec trees) cross the wire,
// never closures.
//
// A spec may carry many aggregates: the server runs the batch through
// the multi-aggregate query planner (core.PlanBatch), deduping
// predicates, fusing same-selection aggregates and answering them all
// from one sample stream, so a batch costs far fewer oracle queries
// than one job per aggregate. The job view then reports per-aggregate
// results plus a "plan" section (method, fused physicals, the stream's
// account; "groups" is a list holding that one stream).
// The wire shape is backward compatible — single-aggregate specs and
// pre-planner clients see the same fields as before.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/shard"
	"repro/internal/store"
)

// maxEstimateBodyBytes bounds a job submission body; specs are small
// (a deep predicate tree is a few KB).
const maxEstimateBodyBytes = 1 << 20

// handleEstimate creates and starts an estimation job.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEstimateBodyBytes)).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("invalid estimate body: %v", err)})
		return
	}
	if spec.Metric != "" {
		// A spec pinned to a metric only runs on a backend ranking in it:
		// the estimates would otherwise silently change meaning.
		m, err := geo.ParseMetric(spec.Metric)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		if m != s.metric {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("spec compiled for metric %s, server runs %s", m, s.metric),
			})
			return
		}
	}
	j, err := s.jobs.Create(spec)
	if err != nil {
		// Capacity exhaustion is server state, not a malformed request:
		// a 429 with its own machine-readable code, so retry policies
		// can wait it out (capacity clears when a job settles) while a
		// budget-exhausted 429 stays terminal.
		if errors.Is(err, jobs.ErrTableFull) {
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), Code: codeJobsExhausted})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

// jobFor resolves the {id} path value, rendering the 404 itself.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown job %q", id)})
		return nil, false
	}
	return j, true
}

// handleJobGet reports a job's state and its (partial) results.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleJobDelete cancels a job and returns its settled view — for a
// job canceled mid-run, the partial Results of the samples completed
// before the cancel. Deleting a finished job is a no-op returning its
// final view.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.jobs.Cancel(j.ID)
	// The run stops at the next sample boundary; bounded by the
	// request context, so an impatient client gets the best-effort
	// snapshot instead of hanging.
	_ = j.Wait(r.Context())
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleJobTrace streams the job's trace as NDJSON: one
// jobs.TraceEvent per line, replaying from the earliest retained event
// (the first sample, unless the job outgrew its bounded trace window)
// and following live until the job settles or the client disconnects.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	_ = j.FollowTrace(r.Context(), func(e jobs.TraceEvent) error {
		if err := enc.Encode(e); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

// statsResponse is the /v1/stats payload.
type statsResponse struct {
	// Queries is the backend's lifetime query count (the paper's cost
	// metric).
	Queries int64 `json:"queries"`
	// Metric names the backend's distance metric (euclidean | haversine).
	Metric string `json:"metric,omitempty"`
	// BudgetRemaining is the service budget still available, or -1
	// when the budget is unlimited (or unknown for a custom backend).
	BudgetRemaining int64 `json:"budget_remaining"`
	// Cache reports answer-cache effectiveness when the backend chain
	// contains a CachedOracle.
	Cache *lbs.CacheStats `json:"cache,omitempty"`
	// PartialAnswers counts queries this server answered degraded (a
	// federation shard down or skipped; the response carried partial
	// headers).
	PartialAnswers int64 `json:"partial_answers,omitempty"`
	// Federation reports scatter-gather and per-shard counters when
	// the backend chain ends in a shard.Router.
	Federation *shard.RouterStats `json:"federation,omitempty"`
	// Faults sums the injected-fault counters of every faults.Injector
	// in the backend tree, federation members' included (chaos
	// deployments).
	Faults *faults.Stats `json:"faults,omitempty"`
	// Live reports mutation counters when the backend chain (or the
	// configured Mutator) is a live database or cluster.
	Live *live.Stats `json:"live,omitempty"`
	// Store reports the durable storage engine's counters (pages read
	// and written, WAL volume, recovery counts) when the server runs
	// with -data-dir; the walk finds the store.Instrumented wrapper
	// wherever it sits in the stack.
	Store *store.Stats `json:"store,omitempty"`
	// Jobs counts retained estimation jobs by state.
	Jobs map[jobs.State]int `json:"jobs"`
}

// handleStats reports live service counters: query count, remaining
// budget, job state counts and each layer's own Stats() snapshot
// (cache, federation, faults, live, store) — the observable
// replacement for dumping stats at process shutdown.
//
// One lbs.Walk over the query chain, federation members included,
// finds the layers, so arbitrary stacks — Scoped→Cached→Service,
// Cached→Router→faulted members, deeper gateways — report every
// layer, not just the outermost querier's. The outermost layer
// reporting a section wins; fault injectors are summed. A Mutator
// configured beside (not inside) the query chain is walked too, when
// the chain itself reported no live section: the live backend may sit
// behind wrappers that do not implement lbs.Wrapper.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Queries:         s.svc.QueryCount(),
		Metric:          s.metric.String(),
		BudgetRemaining: -1,
		PartialAnswers:  s.partials.Load(),
		Jobs:            s.jobs.Counts(),
	}
	chain := true
	visit := func(layer any, member bool) {
		outermost(&resp.Cache, layer)
		outermost(&resp.Federation, layer)
		outermost(&resp.Live, layer)
		outermost(&resp.Store, layer)
		if l, ok := layer.(interface{ Stats() faults.Stats }); ok {
			st := l.Stats()
			if resp.Faults != nil {
				st = st.Add(*resp.Faults)
			}
			resp.Faults = &st
		}
		// The innermost budgeted layer of the query chain meters the
		// budget; federation members and a side Mutator do not.
		if l, ok := layer.(interface{ RemainingBudget() int64 }); ok && chain && !member {
			resp.BudgetRemaining = l.RemainingBudget()
		}
	}
	lbs.Walk(s.svc, visit)
	if resp.Live == nil {
		chain = false
		lbs.Walk(s.mutator, visit)
	}
	writeJSON(w, http.StatusOK, resp)
}

// outermost sets *dst to layer's Stats() snapshot when the layer
// reports a T and no outer layer has.
func outermost[T any](dst **T, layer any) {
	if l, ok := layer.(interface{ Stats() T }); ok && *dst == nil {
		st := l.Stats()
		*dst = &st
	}
}
