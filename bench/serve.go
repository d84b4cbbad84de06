package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/httpapi"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/shard"
	"repro/internal/store"
)

// envServe carries a child's stack configuration (JSON). Its presence
// turns the process into the benchmark's server, so the same binary —
// or the test binary, via TestMain — serves as the program under test.
const envServe = "BENCH_SERVE"

// stackConfig is everything the child needs to compose its stack. The
// composition follows cmd/lbsserve: store → live | shard router → answer
// cache → httpapi server.
type stackConfig struct {
	// Data is a .lbspack to load, or with Live a store directory holding
	// one.
	Data   string  `json:"data"`
	K      int     `json:"k"`
	Shards int     `json:"shards,omitempty"`
	Cache  int     `json:"cache,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	Live   bool    `json:"live,omitempty"`
	Trace  bool    `json:"trace,omitempty"`
}

// setupTimes are the child's own set-up phases, in seconds.
type setupTimes struct {
	Open      float64 `json:"open"`
	Partition float64 `json:"partition"`
	Listen    float64 `json:"listen"`
}

// childStats is the counter snapshot the child serves at /bench/mark
// and /bench/end; the parent differences the two. Spans and their drop
// count come only with /bench/end.
type childStats struct {
	CPUSeconds   float64         `json:"cpu_seconds"`
	MaxRSSMB     float64         `json:"max_rss_mb"`
	NumGC        uint32          `json:"num_gc"`
	PauseTotalNs uint64          `json:"pause_total_ns"`
	TotalAlloc   uint64          `json:"total_alloc"`
	Below        int64           `json:"below"`
	Cache        *lbs.CacheStats `json:"cache,omitempty"`
	Logical      int64           `json:"logical"`
	Upstream     int64           `json:"upstream"`
	Live         *live.Stats     `json:"live,omitempty"`
	Store        store.Stats     `json:"store"`
	Setup        setupTimes      `json:"setup"`
	RepeatMisses int64           `json:"repeat_misses"`
	OverlayMax   int64           `json:"overlay_max"`
	Spans        []span          `json:"spans,omitempty"`
	Dropped      int64           `json:"dropped,omitempty"`
}

// child is the composed stack plus what its stats endpoint reads.
type child struct {
	tr     *tracer // nil unless tracing
	setup  setupTimes
	cache  *lbs.CachedOracle
	router *shard.Router
	ldb    *live.Database
	below  lbs.Querier // the querier under the cache (or the leaf without one)
	st     *store.Store
	sm     *store.Metrics
	seen   *pointSet
	mut    *timedMutator
}

// serve runs the child: compose the stack, listen on a loopback port,
// print "listening ADDR", and serve until stdin closes.
func serve(spec string) {
	var cfg stackConfig
	if err := json.Unmarshal([]byte(spec), &cfg); err != nil {
		log.Fatalf("bench serve: config: %v", err)
	}
	c, handler, err := compose(cfg)
	if err != nil {
		log.Fatalf("bench serve: %v", err)
	}
	t := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("bench serve: %v", err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	c.setup.Listen = time.Since(t).Seconds()
	fmt.Printf("listening %s\n", ln.Addr())
	// The parent closes our stdin to stop us; exiting drops every
	// connection and in-flight job at once, which is all a benchmark
	// child needs.
	_, _ = bufio.NewReader(os.Stdin).ReadString(0)
	os.Exit(0)
}

// compose builds the stack cfg describes and the handler serving it:
// the httpapi server (behind the trace handler when tracing) plus the
// /bench/ control endpoints.
func compose(cfg stackConfig) (*child, http.Handler, error) {
	c := &child{}
	if cfg.Trace {
		c.tr = newTracer(1 << 20)
		if cfg.Cache > 0 {
			c.seen = &pointSet{t: c.tr, seen: make(map[[3]uint64]struct{})}
		}
	}
	wrap := func(q lbs.Querier, l layer, seen *pointSet) lbs.Querier {
		if c.tr == nil {
			return q
		}
		return &timedQuerier{Querier: q, t: c.tr, l: l, seen: seen}
	}
	opts := lbs.Options{K: cfg.K, MaxRadius: cfg.Radius, Metric: geo.Euclidean}

	t := time.Now()
	var leaf lbs.Querier
	var mutator live.Mutator
	// The cache's invalidation hook must exist before the live database
	// does; mutations only arrive once the server is up.
	var cacheRef atomic.Pointer[lbs.CachedOracle]
	if cfg.Live {
		st, err := store.Open(cfg.Data, store.Options{Metric: geo.Euclidean})
		if err != nil {
			return nil, nil, err
		}
		lopts := live.Options{OnInvalidate: func(r geom.Rect) {
			if cc := cacheRef.Load(); cc != nil {
				cc.Invalidate(r)
			}
		}}
		gen := func() *lbs.Database { log.Fatal("bench serve: the store holds no pack"); return nil }
		ldb, err := st.OpenLive(gen, opts, lopts)
		if err != nil {
			return nil, nil, err
		}
		c.st, c.ldb, leaf, mutator = st, ldb, ldb, ldb
		c.setup.Open = time.Since(t).Seconds()
	} else {
		c.sm = &store.Metrics{}
		db, _, err := store.LoadDatasetMetric(cfg.Data, 0, c.sm)
		if err != nil {
			return nil, nil, err
		}
		c.setup.Open = time.Since(t).Seconds()
		if cfg.Shards > 1 {
			t = time.Now()
			parts := shard.Partition(db, cfg.Shards)
			r, err := shard.FromPartsWrapped(parts, opts, shard.DefaultResilience(),
				func(_ int, q lbs.Querier) lbs.Querier { return wrap(q, layerLeaf, nil) })
			if err != nil {
				return nil, nil, err
			}
			c.router = r
			c.setup.Partition = time.Since(t).Seconds()
		} else {
			leaf = lbs.NewService(db, opts)
		}
	}

	var backend lbs.Querier
	switch {
	case c.router != nil:
		backend, c.below = wrap(c.router, layerShard, c.seen), c.router
	default:
		backend, c.below = wrap(leaf, layerLeaf, c.seen), leaf
	}
	if cfg.Cache > 0 {
		c.cache = lbs.NewCachedOracle(backend, lbs.CacheOptions{Capacity: cfg.Cache, Metric: geo.Euclidean})
		cacheRef.Store(c.cache)
		backend = wrap(c.cache, layerCache, nil)
	}
	if c.st != nil {
		backend = c.st.Instrument(backend)
	}
	if mutator != nil && c.tr != nil {
		c.mut = &timedMutator{Mutator: mutator, t: c.tr, db: c.ldb}
		mutator = c.mut
	}
	api := httpapi.NewServerWith(backend, httpapi.ServerOptions{Mutator: mutator})

	mux := http.NewServeMux()
	var h http.Handler = api
	if c.tr != nil {
		h = c.tr.traceHandler(api)
	}
	mux.Handle("/", h)
	mux.HandleFunc("POST /bench/mark", func(w http.ResponseWriter, _ *http.Request) {
		if c.tr != nil {
			c.tr.start()
		}
		writeStats(w, c.stats())
	})
	mux.HandleFunc("GET /bench/cpu", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "%v", cpuSeconds())
	})
	mux.HandleFunc("POST /bench/end", func(w http.ResponseWriter, _ *http.Request) {
		st := c.stats()
		if c.tr != nil {
			st.Spans, st.Dropped = c.tr.stop()
		}
		writeStats(w, st)
	})
	return c, mux, nil
}

func writeStats(w http.ResponseWriter, st childStats) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// stats snapshots the process and every layer's public counters.
func (c *child) stats() childStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := childStats{
		CPUSeconds:   cpuSeconds(),
		MaxRSSMB:     peakRSSMB(),
		NumGC:        ms.NumGC,
		PauseTotalNs: ms.PauseTotalNs,
		TotalAlloc:   ms.TotalAlloc,
		Below:        c.below.QueryCount(),
		Setup:        c.setup,
	}
	if c.cache != nil {
		cs := c.cache.Stats()
		st.Cache = &cs
	}
	if c.router != nil {
		rs := c.router.Stats()
		st.Logical, st.Upstream = rs.Logical, rs.Upstream
	}
	if c.ldb != nil {
		ls := c.ldb.Stats()
		st.Live = &ls
	}
	switch {
	case c.st != nil:
		st.Store = c.st.Stats()
	case c.sm != nil:
		st.Store = c.sm.Snapshot()
	}
	if c.seen != nil {
		st.RepeatMisses = c.seen.count()
	}
	if c.mut != nil {
		st.OverlayMax = c.mut.overlayMax.Load()
	}
	return st
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
