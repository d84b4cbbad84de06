// Command lbsserve runs a simulated location based service behind the
// HTTP API of internal/httpapi — the test bed for running the
// estimators against a networked service:
//
//	lbsserve -scenario schools -n 2000 -k 10 -addr :8080 &
//	# raw oracle queries:
//	curl 'localhost:8080/v1/lr?x=1200&y=900'
//	curl 'localhost:8080/v1/lnr?x=1200&y=900&category=school'
//	curl -d '{"points":[{"x":1200,"y":900},{"x":1300,"y":950}]}' \
//	     'localhost:8080/v1/query/lr:batch'
//	# estimation as a service: submit a job, watch it, stream its trace:
//	curl -d '{"method":"lr","seed":42,"aggregates":[{"kind":"count"}]}' \
//	     'localhost:8080/v1/estimate'
//	curl 'localhost:8080/v1/jobs/job-1'
//	curl -N 'localhost:8080/v1/jobs/job-1/trace'
//	curl -X DELETE 'localhost:8080/v1/jobs/job-1'
//	# live service counters (queries, budget, cache, jobs):
//	curl 'localhost:8080/v1/stats'
//
// -cache-size layers a sharded LRU answer cache in front of the
// service (a caching gateway): repeated queries are served from
// memory without consuming the budget. -job-max-queries caps the
// query spend of estimation jobs that set no bound of their own.
//
// # Scaling out
//
// -shards N partitions the generated database into N spatial shards
// behind a scatter-gather router (internal/shard); answers, budgets
// and jobs behave exactly as with a single service, and GET /v1/stats
// gains a per-shard federation section:
//
//	lbsserve -scenario schools -n 100000 -shards 8 -addr :8080
//
// -upstream federates running lbsserve instances instead of local
// shards — each upstream serves one disjoint spatial partition (e.g.
// generated by a partitioning loader) and this process becomes the
// scatter-gather front:
//
//	lbsserve -upstream http://a:8080,http://b:8080 -k 10 -addr :9090
//
// Upstreams must answer distance-ranked LR queries with k at least
// this server's -k (×4 overfetch under prominence ranking).
//
// # Live data
//
// -live serves a mutable database: POST /v1/tuples:stream accepts an
// NDJSON stream of insert/delete/move ops and acks each one with the
// epoch at which it became visible (see internal/httpapi/ingest.go
// for the wire shapes):
//
//	lbsserve -scenario schools -n 2000 -live -addr :8080 &
//	printf '%s\n' \
//	  '{"op":"insert","id":9001,"x":1200,"y":900,"category":"school"}' \
//	  '{"op":"move","id":9001,"x":1210,"y":905}' \
//	  '{"op":"delete","id":9001}' |
//	curl -sN --data-binary @- 'localhost:8080/v1/tuples:stream'
//
// -live composes with -shards (mutations route to the owning shard)
// and -cache-size (mutations invalidate exactly the cached answers
// whose cells intersect the dirtied region — give the service a
// -radius so the dirty region is finite). -compact-threshold bounds
// the mutation overlay before a background rebuild folds it into a
// fresh spatial index.
//
// # Durability
//
// -data-dir makes the server stateful across restarts (see
// internal/store): the database persists as a paged .lbspack (first
// start ingests and packs; later starts scan the pack into memory
// instead of regenerating), live mutations journal to a write-ahead
// log replayed on reopen, estimation jobs resume after a restart, and
// the answer cache's contents survive a graceful shutdown. A startup
// log line reports what recovery found, and GET /v1/stats gains a
// "store" section (pages read and written, WAL bytes, recovery counts):
//
//	lbsserve -scenario schools -n 10000 -live -data-dir /var/lib/lbs &
//	# … mutations, jobs …; kill and restart with the same flags:
//	lbsserve -scenario schools -n 10000 -live -data-dir /var/lib/lbs
//
// -dataset loads the database from a file instead of generating it:
// lbsgen JSON or a .lbspack written by lbsgen -o city.lbspack.
//
// The flags compose through internal/stack: flag combinations that
// are unsupported or would be silently ignored are rejected at startup
// by the rules table behind stack.Spec.Validate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/httpapi"
	"repro/internal/stack"
)

func main() {
	var s stack.Spec
	flag.StringVar(&s.Scenario, "scenario", "schools", "schools | restaurants | starbucks | wechat | weibo | cities | geo-us | geo-china")
	flag.IntVar(&s.N, "n", 2000, "number of tuples")
	flag.Int64Var(&s.Seed, "seed", 1, "generator seed")
	flag.StringVar(&s.Density, "density", "", "cluster spread for cities/geo-us/geo-china: gauss (default) | zipf (heavy-tailed power law)")
	flag.StringVar(&s.Metric, "metric", "", "distance metric: euclidean | haversine (geodesic; coordinates are lon/lat degrees). Default: whatever the scenario, dataset or upstreams are laid out for; set explicitly to assert it")
	flag.IntVar(&s.K, "k", 10, "interface top-k")
	flag.Int64Var(&s.Budget, "budget", 0, "total query budget (0 = unlimited)")
	flag.Float64Var(&s.Radius, "radius", 0, "maximum coverage radius (0 = unlimited)")
	flag.StringVar(&s.Addr, "addr", ":8080", "listen address")
	flag.IntVar(&s.CacheSize, "cache-size", 0, "answer-cache entries in front of the service (0 = no cache); hits are served without consuming budget, like a caching gateway")
	flag.Int64Var(&s.JobMaxQueries, "job-max-queries", 0, "default query cap for estimation jobs that set none (0 = uncapped)")
	flag.IntVar(&s.MaxJobs, "max-jobs", 0, "retained estimation jobs before the oldest finished ones are evicted (0 = default)")
	flag.IntVar(&s.Shards, "shards", 0, "partition the database into this many spatial shards behind a scatter-gather router (0/1 = single service)")
	flag.StringVar(&s.Upstream, "upstream", "", "comma-separated base URLs of running lbsserve shards to federate (replaces the local scenario; -k/-budget/-radius describe the logical service)")
	flag.BoolVar(&s.Live, "live", false, "serve a live (mutable) database: POST /v1/tuples:stream accepts NDJSON insert/delete/move ops; composes with -shards and -cache-size")
	flag.IntVar(&s.CompactThreshold, "compact-threshold", 0, "with -live: overlay size triggering a background rebuild of the base index (0 = default, negative = never compact)")
	flag.StringVar(&s.FaultSpec, "fault-spec", "", `inject faults for resilience testing: comma-separated key=value pairs (seed, transient, every, down-after, down-for, latency, sigma, slow, dup), e.g. "transient=0.05,latency=2ms,sigma=0.5"; with -shards each member gets its own injector (per-shard seed offset) so the router's retry/breaker machinery is exercised, otherwise the whole backend is faulted`)
	flag.StringVar(&s.DataDir, "data-dir", "", "durable state directory (internal/store): packs the database, journals live mutations, resumes jobs and restores the cache across restarts")
	flag.StringVar(&s.Dataset, "dataset", "", "load the database from this file (lbsgen JSON or .lbspack) instead of generating -scenario")
	flag.Parse()

	// Serve until interrupted or terminated, then drain: estimation
	// jobs are canceled (settling with partial results), in-flight
	// queries see their request contexts canceled, the listener closes
	// cleanly and the stack checkpoints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err := s.Build(ctx, nil)
	if err != nil {
		log.Fatal(err)
	}
	api := httpapi.NewServerWith(st.Querier, httpapi.ServerOptions{Jobs: st.Jobs, Mutator: st.Mutator})
	recovered, err := st.Recover(api.Jobs())
	if err != nil {
		log.Fatal(err)
	}
	if recovered != "" {
		fmt.Println(recovered)
	}
	fmt.Printf("serving %s on %s\nestimation jobs: POST /v1/estimate · live counters: GET /v1/stats\n", st.Label, s.Addr)
	if st.Mutator != nil {
		fmt.Printf("mutation stream: POST /v1/tuples:stream (NDJSON insert/delete/move)\n")
	}

	srv := &http.Server{Addr: s.Addr, Handler: api}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		api.Jobs().CancelAll(shutdownCtx)
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatal(err)
		}
		if err := st.Close(); err != nil {
			log.Printf("shutdown checkpoint: %v", err)
		}
		// The full picture (cache and job counters included) is served
		// live by GET /v1/stats; the shutdown line is just a closing
		// summary.
		fmt.Printf("shut down after %d queries\n", st.Querier.QueryCount())
	}
}
