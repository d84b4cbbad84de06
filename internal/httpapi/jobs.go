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
// predicates, fusing same-selection aggregates and sharing sample
// streams, so a batch costs far fewer oracle queries than one job per
// aggregate. The job view then reports per-aggregate results plus a
// "plan" section (method groups, fused physicals, per-group account).
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

// cacheStatsView is the wire form of lbs.CacheStats.
type cacheStatsView struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Bypasses  int64 `json:"bypasses"`
	Evictions int64 `json:"evictions"`
	// Invalidations counts entries dropped by epoch-based region
	// invalidation (mutations dirtying cached answers), as opposed to
	// capacity evictions.
	Invalidations int64 `json:"invalidations"`
	Entries       int64 `json:"entries"`
	// Restored counts entries loaded from a durable snapshot at startup
	// (warm restart); omitted on ephemeral caches.
	Restored int64 `json:"restored,omitempty"`
}

// liveStatsView is the wire form of live.Stats.
type liveStatsView struct {
	Epoch       uint64 `json:"epoch"`
	BaseLen     int    `json:"base_len"`
	DeltaLen    int    `json:"delta_len"`
	Tombstones  int    `json:"tombstones"`
	Inserts     int64  `json:"inserts"`
	Deletes     int64  `json:"deletes"`
	Moves       int64  `json:"moves"`
	Rejected    int64  `json:"rejected"`
	Compactions int64  `json:"compactions"`
	Compacting  bool   `json:"compacting"`
}

func liveViewOf(st live.Stats) *liveStatsView {
	return &liveStatsView{
		Epoch: st.Epoch, BaseLen: st.BaseLen, DeltaLen: st.DeltaLen,
		Tombstones: st.Tombstones, Inserts: st.Inserts, Deletes: st.Deletes,
		Moves: st.Moves, Rejected: st.Rejected,
		Compactions: st.Compactions, Compacting: st.Compacting,
	}
}

// shardStatView is the wire form of one federation member's stats.
type shardStatView struct {
	MinX    float64 `json:"min_x"`
	MinY    float64 `json:"min_y"`
	MaxX    float64 `json:"max_x"`
	MaxY    float64 `json:"max_y"`
	Queries int64   `json:"queries"`
	// State is the member's circuit-breaker state (closed / open /
	// half-open); Failures counts its availability failures, Opens how
	// many times its breaker tripped.
	State    shard.BreakerState `json:"state,omitempty"`
	Failures int64              `json:"failures,omitempty"`
	Opens    int64              `json:"opens,omitempty"`
}

// federationStatsView is the wire form of shard.RouterStats.
type federationStatsView struct {
	// Logical is the federation's client-visible query count; Upstream
	// the physical subqueries fanned out across the shards.
	Logical  int64 `json:"logical"`
	Upstream int64 `json:"upstream"`
	// Partial counts queries answered degraded, Dropped batch positions
	// lost to a dead owner; Retries and Hedges count the resilience
	// layer's extra member attempts.
	Partial int64           `json:"partial,omitempty"`
	Dropped int64           `json:"dropped,omitempty"`
	Retries int64           `json:"retries,omitempty"`
	Hedges  int64           `json:"hedges,omitempty"`
	Shards  []shardStatView `json:"shards"`
}

// faultStatsView is the wire form of faults.Stats, reported when the
// backend chain runs through a fault injector (chaos deployments).
type faultStatsView struct {
	Calls      int64 `json:"calls"`
	Transients int64 `json:"transients"`
	DownCalls  int64 `json:"down_calls"`
	Duplicates int64 `json:"duplicates"`
	Slowed     int64 `json:"slowed"`
}

// memberFaults walks each federation member's wrapper chain and sums
// any faults.Stats found, or returns nil when no member runs through
// an injector.
func memberFaults(members []lbs.Querier) *faultStatsView {
	var fv *faultStatsView
	for _, q := range members {
		fs, ok := lbs.Find[interface{ Stats() faults.Stats }](q)
		if !ok {
			continue
		}
		st := fs.Stats()
		if fv == nil {
			fv = &faultStatsView{}
		}
		fv.Calls += st.Calls
		fv.Transients += st.Transients
		fv.DownCalls += st.DownCalls
		fv.Duplicates += st.Duplicates
		fv.Slowed += st.Slowed
	}
	return fv
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
	Cache *cacheStatsView `json:"cache,omitempty"`
	// PartialAnswers counts queries this server answered degraded (a
	// federation shard down or skipped; the response carried partial
	// headers).
	PartialAnswers int64 `json:"partial_answers,omitempty"`
	// Federation reports scatter-gather and per-shard counters when
	// the backend chain ends in a shard.Router.
	Federation *federationStatsView `json:"federation,omitempty"`
	// Faults reports injected-fault counters when the backend chain
	// runs through a faults.Injector (chaos deployments).
	Faults *faultStatsView `json:"faults,omitempty"`
	// Live reports mutation counters when the backend chain (or the
	// configured Mutator) is a live database or cluster.
	Live *liveStatsView `json:"live,omitempty"`
	// Store reports the durable storage engine's counters (pages read
	// and written, buffer-pool hit rate, WAL volume, recovery counts)
	// when the server runs with -data-dir; the chain walk finds the
	// store.Instrumented wrapper wherever it sits in the stack.
	Store *store.Stats `json:"store,omitempty"`
	// Jobs counts retained estimation jobs by state.
	Jobs map[jobs.State]int `json:"jobs"`
}

// handleStats reports live service counters: query count, remaining
// budget, cache stats (when serving through a CachedOracle),
// federation stats (when serving through a shard.Router) and job
// state counts — the observable replacement for dumping stats at
// process shutdown.
//
// The walk is generic over lbs.Wrapper, so arbitrary stacks —
// Scoped→Cached→Service, Cached→Router→..., deeper gateways — report
// every layer's optional stats interfaces, not just the outermost
// querier's.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Queries:         s.svc.QueryCount(),
		Metric:          s.metric.String(),
		BudgetRemaining: -1,
		PartialAnswers:  s.partials.Load(),
		Jobs:            s.jobs.Counts(),
	}
	for q := s.svc; q != nil; {
		if resp.Cache == nil {
			if cs, ok := q.(interface{ Stats() lbs.CacheStats }); ok {
				st := cs.Stats()
				resp.Cache = &cacheStatsView{
					Hits: st.Hits, Misses: st.Misses, Bypasses: st.Bypasses,
					Evictions: st.Evictions, Invalidations: st.Invalidations,
					Entries: st.Entries, Restored: st.Restored,
				}
			}
		}
		if resp.Federation == nil {
			if fs, ok := q.(interface{ Stats() shard.RouterStats }); ok {
				st := fs.Stats()
				fv := &federationStatsView{
					Logical: st.Logical, Upstream: st.Upstream,
					Partial: st.Partial, Dropped: st.Dropped,
					Retries: st.Retries, Hedges: st.Hedges,
				}
				for _, sh := range st.Shards {
					fv.Shards = append(fv.Shards, shardStatView{
						MinX: sh.Region.Min.X, MinY: sh.Region.Min.Y,
						MaxX: sh.Region.Max.X, MaxY: sh.Region.Max.Y,
						Queries: sh.Queries,
						State:   sh.State, Failures: sh.Failures, Opens: sh.Opens,
					})
				}
				resp.Federation = fv
			}
		}
		if resp.Faults == nil {
			if fs, ok := q.(interface{ Stats() faults.Stats }); ok {
				st := fs.Stats()
				resp.Faults = &faultStatsView{
					Calls: st.Calls, Transients: st.Transients,
					DownCalls: st.DownCalls, Duplicates: st.Duplicates,
					Slowed: st.Slowed,
				}
			} else if m, ok := q.(interface{ Members() []lbs.Querier }); ok {
				// A federation's injectors sit inside its member chains,
				// not on the main wrapper spine: sum them across shards.
				if fv := memberFaults(m.Members()); fv != nil {
					resp.Faults = fv
				}
			}
		}
		if resp.Live == nil {
			if ls, ok := q.(interface{ Stats() live.Stats }); ok {
				resp.Live = liveViewOf(ls.Stats())
			}
		}
		if resp.Store == nil {
			if ss, ok := q.(interface{ StoreStats() store.Stats }); ok {
				st := ss.StoreStats()
				resp.Store = &st
			}
		}
		if rb, ok := q.(interface{ RemainingBudget() int64 }); ok {
			resp.BudgetRemaining = rb.RemainingBudget()
		}
		iw, ok := q.(lbs.Wrapper)
		if !ok {
			break
		}
		q = iw.Inner()
	}
	// A Mutator configured beside (not inside) the query chain still
	// reports: the live backend may sit behind wrappers that do not
	// implement lbs.Wrapper.
	if ls, ok := lbs.Find[interface{ Stats() live.Stats }](s.mutator); ok && resp.Live == nil {
		resp.Live = liveViewOf(ls.Stats())
	}
	writeJSON(w, http.StatusOK, resp)
}
