// Package stack composes the simulated location based service that
// lbsserve serves: a restrictive kNN interface (top-k, query budget,
// coverage radius) over a generated scenario, a dataset file, a
// durable store, a federation of upstream servers or a caller's
// in-memory database, optionally made live, sharded, fault-injected
// and cached.
//
// A Spec holds the lbsserve flags; Build validates it against the
// rules table and composes the querier chain innermost first:
//
//	data (database | scenario | dataset | store | upstreams)
//	→ live overlay or cluster | shard router (per-member faults)
//	→ whole-backend faults → answer cache → store instrumentation
package stack

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// Spec describes one serving stack. Each field is the lbsserve flag of
// the same name (CacheSize is -cache-size, JobMaxQueries is
// -job-max-queries, and so on); the zero value of an optional field
// leaves its layer out. The data comes from a generated -scenario
// (-n, -seed, -density), a -dataset file, a warm -data-dir,
// -upstream servers or the database handed to Build, and -metric
// asserts its geometry.
type Spec struct {
	Scenario, Density, Dataset, Upstream, Metric, FaultSpec, DataDir, Addr string
	N, K, Shards, CacheSize, CompactThreshold, MaxJobs                     int
	Seed, Budget, JobMaxQueries                                            int64
	Radius                                                                 float64
	Live                                                                   bool
}

// rules is the flag-compatibility table: a Spec (built over db) for
// which a row's conflict holds is rejected with that row's error. Flag
// values that do not parse, an unknown scenario, -density on a
// fixed-density scenario and a -metric the data contradicts are
// checked after it.
var rules = []struct {
	err      string
	conflict func(s *Spec, db *lbs.Database) bool
}{
	{"-data-dir is incompatible with -upstream: the remote shards hold the state", func(s *Spec, _ *lbs.Database) bool { return s.DataDir != "" && s.Upstream != "" }},
	{"-data-dir with -live -shards is unsupported: live members cannot share one journal", func(s *Spec, _ *lbs.Database) bool { return s.DataDir != "" && s.Live && s.Shards > 1 }},
	{"-live is incompatible with -upstream: mutations cannot be routed to remote upstreams (run the upstreams themselves with -live)", func(s *Spec, _ *lbs.Database) bool { return s.Live && s.Upstream != "" }},
	{"-shards is incompatible with -upstream: the upstreams are the federation's shards", func(s *Spec, _ *lbs.Database) bool { return s.Shards > 1 && s.Upstream != "" }},
	{"-dataset is incompatible with -upstream: the upstreams serve the data", func(s *Spec, _ *lbs.Database) bool { return s.Dataset != "" && s.Upstream != "" }},
	{"-compact-threshold applies only with -live", func(s *Spec, _ *lbs.Database) bool { return s.CompactThreshold != 0 && !s.Live }},
	{"a database passed to Build is incompatible with -dataset and -upstream: it is the data", func(s *Spec, db *lbs.Database) bool { return db != nil && (s.Dataset != "" || s.Upstream != "") }},
}

// Validate reports the first rule the Spec built over db (nil for
// none) breaks, or nil.
func (s Spec) Validate(db *lbs.Database) error {
	_, _, err := s.resolve(db)
	return err
}

// resolve validates the Spec built over db and derives what Build needs
// from it: the service options of the stack, with the distance metric
// it runs (before any upstream is asked), and the parsed fault spec
// (nil for none).
func (s *Spec) resolve(db *lbs.Database) (lbs.Options, *faults.Spec, error) {
	for _, r := range rules {
		if r.conflict(s, db) {
			return lbs.Options{}, nil, errors.New(r.err)
		}
	}
	opts := lbs.Options{K: s.K, Budget: s.Budget, MaxRadius: s.Radius}
	if err := opts.Validate(); err != nil {
		flag := "-radius"
		if s.K < 1 {
			flag = "-k"
		}
		return lbs.Options{}, nil, fmt.Errorf("%s: %w", flag, err)
	}
	var fspec *faults.Spec
	if s.FaultSpec != "" {
		f, err := faults.ParseSpec(s.FaultSpec)
		if err != nil {
			return lbs.Options{}, nil, fmt.Errorf("-fault-spec: %w", err)
		}
		fspec = &f
	}
	if _, err := workload.ParseDensity(s.Density); err != nil {
		return lbs.Options{}, nil, fmt.Errorf("-density: %w", err)
	}
	// The data decides the metric: the dataset's header or the
	// scenario's layout (upstreams report theirs in Build). An explicit
	// -metric asserts it: the coordinates were laid out for one
	// geometry. A database carries no metric: -metric names it, and
	// Euclidean is the default.
	var metric geo.Metric
	var err error
	switch {
	case db != nil:
	case s.Dataset != "":
		if metric, err = store.DatasetMetric(s.Dataset); err != nil {
			err = fmt.Errorf("-dataset: %w", err)
		}
	case s.Upstream == "":
		metric, err = workload.NamedMetric(s.Scenario, s.Density)
	}
	if err != nil {
		return lbs.Options{}, nil, err
	}
	if s.Metric != "" {
		m, err := geo.ParseMetric(s.Metric)
		if err != nil {
			return lbs.Options{}, nil, fmt.Errorf("-metric: %w", err)
		}
		if s.Upstream == "" && db == nil && m != metric {
			return lbs.Options{}, nil, fmt.Errorf("-metric %s, but the backing data is laid out for %s", m, metric)
		}
		metric = m
	}
	opts.Metric = metric
	return opts, fspec, nil
}

// Stack is a built Spec: the querier chain to serve and what the
// server around it needs.
type Stack struct {
	// Querier is the outermost layer of the chain.
	Querier lbs.Querier
	// Mutator is the live database or cluster (nil unless -live).
	Mutator live.Mutator
	// Jobs configures the estimation-job manager, persisting jobs in
	// the store under -data-dir.
	Jobs jobs.ManagerOptions
	// Label describes the stack for the startup log line.
	Label string
	// Name is the data's own name: the dataset path or the generated
	// scenario's (e.g. usa-schools), the -scenario flag when a warm
	// store or Build's database supplied the data, empty behind
	// upstreams. Tuples is its size at startup.
	Name   string
	Tuples int

	store    *store.Store
	cache    *lbs.CachedOracle
	restored int
}

// Build validates the Spec and composes its stack. A non-nil db is the
// data in place of -scenario: -shards partitions it, -live wraps it and
// a cold -data-dir start packs it.
func (s Spec) Build(ctx context.Context, db *lbs.Database) (*Stack, error) {
	opts, fspec, err := s.resolve(db)
	if err != nil {
		return nil, err
	}
	b := &Stack{Jobs: jobs.ManagerOptions{DefaultMaxQueries: s.JobMaxQueries, MaxJobs: s.MaxJobs}}
	var q lbs.Querier
	if s.Upstream != "" {
		q, err = s.federate(ctx, &opts, b)
	} else {
		q, err = s.local(opts, &fspec, b, db)
	}
	if err != nil {
		return nil, err
	}
	if fspec != nil {
		// Single service, live database or upstream federation: fault
		// the composite backend as a whole. Callers see the raw injected
		// errors — there is no resilience layer above this point.
		q = faults.New(q, *fspec)
		b.Label += ", faulted"
	}
	if s.CacheSize > 0 {
		b.cache = lbs.NewCachedOracle(q, lbs.CacheOptions{Capacity: s.CacheSize})
		q = b.cache
		b.Label += fmt.Sprintf(", cache=%d", s.CacheSize)
	}
	if opts.Metric != geo.Euclidean {
		b.Label += ", metric=" + opts.Metric.String()
	}
	if b.store != nil {
		if b.cache != nil {
			b.restored, _ = b.store.LoadCache(b.cache)
		}
		// The Instrumented wrapper is what /v1/stats walks to for the
		// store section; it passes queries through untouched.
		q = b.store.Instrument(q)
		b.Jobs.Store = b.store.Jobs()
	}
	b.Querier = q
	return b, nil
}

// federate builds the scatter-gather front over the upstream servers,
// adopting the first upstream's metric unless -metric asserted one.
func (s *Spec) federate(ctx context.Context, opts *lbs.Options, b *Stack) (lbs.Querier, error) {
	var members []shard.Shard
	for _, u := range strings.Split(s.Upstream, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		c, err := httpapi.NewClient(ctx, u, httpapi.Selection{}, nil)
		if err != nil {
			return nil, fmt.Errorf("upstream %s: %w", u, err)
		}
		if s.Metric == "" && len(members) == 0 {
			opts.Metric = c.Metric()
		}
		// The rest must agree: a mixed federation cannot merge distances.
		if c.Metric() != opts.Metric {
			return nil, fmt.Errorf("upstream %s runs metric %s, federation runs %s", u, c.Metric(), opts.Metric)
		}
		members = append(members, shard.Shard{Querier: c, Region: c.Bounds()})
	}
	b.Label = fmt.Sprintf("federation of %d upstreams, k=%d", len(members), s.K)
	return shard.NewRouter(members, *opts, shard.DefaultResilience())
}

// local builds the backend over local data: given when non-nil, else
// the dataset or scenario. A per-member fault injection (-shards with
// -fault-spec) consumes *fspec.
func (s *Spec) local(opts lbs.Options, fspec **faults.Spec, b *Stack, given *lbs.Database) (q lbs.Querier, err error) {
	name := s.Scenario
	if s.Dataset != "" {
		name = s.Dataset
	}
	b.Name = name
	load := func() (db *lbs.Database, err error) {
		if given != nil {
			return given, nil
		}
		if s.Dataset != "" {
			if db, _, err = store.LoadDatasetMetric(s.Dataset, 0, nil); err != nil {
				err = fmt.Errorf("-dataset: %w", err)
			}
			return db, err
		}
		sc, err := workload.ByName(s.Scenario, s.N, s.Seed, s.Density)
		if err != nil {
			return nil, err
		}
		b.Name = sc.Name
		return sc.DB, nil
	}
	lopts := live.Options{CompactThreshold: s.CompactThreshold}
	if s.CacheSize > 0 {
		// The cache sits above the live backend but its invalidation hook
		// is needed now: the closure reads b.cache when a mutation fires,
		// and none arrives before Build has set it.
		lopts.OnInvalidate = func(r geom.Rect) {
			if b.cache != nil {
				b.cache.Invalidate(r)
			}
		}
	}

	var db *lbs.Database
	durable := ""
	if s.DataDir != "" {
		if b.store, err = store.Open(s.DataDir, store.Options{Metric: opts.Metric}); err != nil {
			return nil, fmt.Errorf("-data-dir: %w", err)
		}
		// Behind a warm store the pack is the database: the store calls
		// gen only for a cold start, and a failed load is the error that
		// start reports.
		var loadErr error
		gen := func() (db *lbs.Database) {
			db, loadErr = load()
			return db
		}
		if s.Live {
			d, err := b.store.OpenLive(gen, opts, lopts)
			if err = cmp.Or(loadErr, err); err != nil {
				return nil, err
			}
			b.Mutator, b.Tuples = d, d.Len()
			b.Label = fmt.Sprintf("%s (%d tuples, k=%d, live, durable epoch %d)", name, d.Len(), s.K, d.Epoch())
			return d, nil
		}
		var warm bool
		db, warm, err = b.store.OpenOrCreateDatabase(gen)
		if err = cmp.Or(loadErr, err); err != nil {
			return nil, err
		}
		durable = ", durable cold ingest"
		if warm {
			durable = ", durable warm start"
		}
	} else if db, err = load(); err != nil {
		return nil, err
	}
	b.Tuples = db.Len()
	b.Label = fmt.Sprintf("%s (%d tuples, k=%d%s)", name, db.Len(), s.K, durable)

	switch {
	case s.Live && s.Shards > 1:
		q, err = live.NewCluster(db, opts, s.Shards, lopts)
		b.Label += fmt.Sprintf(", %d live shards", s.Shards)
	case s.Live:
		q, err = live.New(db, opts, lopts)
		b.Label += ", live"
	case s.Shards > 1:
		// With faults requested, each member gets its own injector
		// (behind the router, seeds offset per member) so the resilience
		// layer — retries, breakers, degraded scatter-gather — is what
		// absorbs them.
		var wrap func(int, lbs.Querier) lbs.Querier
		if f := *fspec; f != nil {
			wrap = func(i int, q lbs.Querier) lbs.Querier {
				m := *f
				m.Seed += int64(i) * 101
				return faults.New(q, m)
			}
			*fspec = nil
		}
		q, err = shard.FromPartsWrapped(shard.Partition(db, s.Shards), opts, shard.DefaultResilience(), wrap)
		b.Label += fmt.Sprintf(", %d shards", s.Shards)
		if wrap != nil {
			b.Label += ", faulted members"
		}
	default:
		q = lbs.NewService(db, opts)
	}
	if err != nil {
		return nil, err
	}
	if s.Live {
		b.Mutator = q.(live.Mutator)
	}
	return q, nil
}

// Recover reloads the job manager's persisted jobs from the store and
// returns the startup line reporting what recovery found; without
// -data-dir it does nothing and returns "".
func (b *Stack) Recover(m *jobs.Manager) (string, error) {
	if b.store == nil {
		return "", nil
	}
	rs, err := m.Recover()
	if err != nil {
		return "", fmt.Errorf("job recovery: %w", err)
	}
	b.store.RecordRecovery(rs)
	var rec store.Recovery
	if ls := b.store.Live(); ls != nil {
		rec = ls.Recovery()
	}
	return fmt.Sprintf("recovered %s: epoch=%d wal_frames=%d wal_ops=%d cache_entries=%d jobs_finished=%d jobs_resumed=%d jobs_unresumable=%d",
		b.store.Dir(), rec.Epoch, rec.Frames, rec.Ops, b.restored, rs.Recovered, rs.Resumed, rs.Unresumable), nil
}

// Close is the graceful-shutdown checkpoint under -data-dir: it
// snapshots the answer cache and flattens the live overlay into the
// pack (truncating the WAL), so the next start is as warm as possible.
func (b *Stack) Close() error {
	if b.store == nil {
		return nil
	}
	var err error
	if b.cache != nil {
		err = b.store.SaveCache(b.cache)
	}
	return errors.Join(err, b.store.Close())
}
