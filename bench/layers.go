package main

import "time"

// layerDefs are the per-layer metrics a traced run reports on every
// workload. Times here exist on every workload's stack; the counts and
// ratios of a layer a workload lacks (no cache, no router, no live
// database, no estimator) read 0. Timings of those optional layers are
// in the result file's layers section (see layerMetrics).
var layerDefs = []metricDef{
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"httpapi.client_us_p50", "us"},
	{"httpapi.handler_us_p50", "us"},
	{"httpapi.handler_us_p99", "us"},
	{"httpapi.transport_us_p50", "us"},
	{"httpapi.handler_self_us_p50", "us"},
	{"service.query_us_p50", "us"},
	{"core.queries_per_sample", "queries"},
	{"core.oracle_share", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.repeat_misses", "count"},
	{"cache.evictions", "count"},
	{"cache.invalidations", "count"},
	{"shard.fanout", "ratio"},
	{"live.overlay_max", "count"},
	{"live.compactions", "count"},
	{"store.open_s", "s"},
	{"store.pages_read", "count"},
	{"store.pool_hit_ratio", "ratio"},
	{"store.wal_bytes_per_op", "bytes"},
	{"setup.listen_s", "s"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"gc.alloc_mb_per_s", "MB/s"},
}

// spanTree indexes one process's spans by parent.
type spanTree struct {
	spans []span
	kids  map[int32][]int32
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, kids: map[int32][]int32{}}
	for i, s := range spans {
		if s.End != 0 && s.Parent >= 0 {
			t.kids[s.Parent] = append(t.kids[s.Parent], int32(i))
		}
	}
	return t
}

func (t *spanTree) dur(i int32) int64 { return t.spans[i].End - t.spans[i].Start }

func (t *spanTree) kidIntervals(i int32) []interval {
	var out []interval
	for _, k := range t.kids[i] {
		out = append(out, t.spans[k].interval())
	}
	return out
}

func (t *spanTree) self(i int32) int64 { return selfTime(t.spans[i].interval(), t.kidIntervals(i)) }

// attribute adds the time span i and its descendants spent to acc, per
// layer: each span's self time, with concurrent leaf calls under one
// parent counted by the union of their intervals (the wall time they
// held the request), so the parts sum to the span's duration.
func (t *spanTree) attribute(i int32, acc map[layer]int64) {
	acc[t.spans[i].Layer] += t.self(i)
	var leaves []interval
	for _, k := range t.kids[i] {
		if t.spans[k].Layer == layerLeaf && len(t.kids[k]) == 0 {
			leaves = append(leaves, t.spans[k].interval())
			continue
		}
		t.attribute(k, acc)
	}
	if len(leaves) > 0 {
		acc[layerLeaf] += covered(t.spans[i].interval(), leaves)
	}
}

// layerMetrics computes a traced pass's per-layer metrics: spans give
// the timings, the differenced counter snapshots the rest.
func layerMetrics(p *pass) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64, n int) { m[name] = metric{Value: v, Unit: unit, N: n} }
	putP := func(name, unit string, xs []float64, pct float64) {
		if len(xs) > 0 {
			put(name, unit, percentile(xs, pct), len(xs))
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	lags := make([]float64, len(p.ops))
	for i, s := range p.ops {
		lags[i] = float64(s.lag) / 1e6
	}
	putP("loadgen.lag_p99_ms", "ms", lags, 99)
	put("loadgen.sent", "count", float64(len(p.ops)), 0)

	srv := newSpanTree(p.end.Spans)
	handlerOf := map[uint64]int32{}
	var handler, handlerSelf, cacheSelf, shardSelf, member, leaf, apply []float64
	var roots int64 // time server-side jobs spent in the backend
	for i, s := range srv.spans {
		if s.End == 0 {
			continue
		}
		i := int32(i)
		switch s.Layer {
		case layerHandler:
			handlerOf[s.Req] = i
			handler = append(handler, us(srv.dur(i)))
			handlerSelf = append(handlerSelf, us(srv.self(i)))
		case layerCache:
			cacheSelf = append(cacheSelf, us(srv.self(i)))
		case layerShard:
			shardSelf = append(shardSelf, us(srv.self(i)))
		case layerLeaf:
			leaf = append(leaf, us(srv.dur(i)))
			if s.Parent >= 0 && srv.spans[s.Parent].Layer == layerShard {
				member = append(member, us(srv.dur(i)))
			}
		case layerApply:
			apply = append(apply, us(srv.dur(i)))
		}
		if s.Parent < 0 && s.Layer >= layerCache && s.Layer <= layerLeaf {
			roots += srv.dur(i)
		}
	}

	// Join client and handler spans by request id, and split each
	// request's client time into transport plus every layer's part: the
	// per-request means (attr.*) add up to the mean client time and say
	// where a request's time goes.
	var clientT, transport []float64
	attr := map[string]int64{}
	for _, c := range p.client {
		h, ok := handlerOf[c.Req]
		if c.End == 0 || c.Layer != layerClient || !ok {
			continue
		}
		cd := c.End - c.Start
		clientT = append(clientT, us(cd))
		transport = append(transport, us(cd-srv.dur(h)))
		acc := map[layer]int64{}
		srv.attribute(h, acc)
		attr["client"] += cd
		attr["transport"] += cd - srv.dur(h)
		for l, v := range acc {
			attr[layerNames[l]] += v
		}
	}
	putP("httpapi.client_us_p50", "us", clientT, 50)
	putP("httpapi.handler_us_p50", "us", handler, 50)
	putP("httpapi.handler_us_p99", "us", handler, 99)
	putP("httpapi.transport_us_p50", "us", transport, 50)
	putP("httpapi.handler_self_us_p50", "us", handlerSelf, 50)
	for name, v := range attr {
		put("attr."+name+"_us_mean", "us", us(v)/float64(len(clientT)), len(clientT))
	}
	putP("service.query_us_p50", "us", leaf, 50)
	putP("cache.self_us_p50", "us", cacheSelf, 50)
	putP("shard.self_us_p50", "us", shardSelf, 50)
	putP("shard.member_us_p50", "us", member, 50)
	if p.end.Live != nil {
		putP("live.query_us_p50", "us", leaf, 50)
		putP("live.query_us_p99", "us", leaf, 99)
		putP("live.apply_us_p50", "us", apply, 50)
		putP("live.apply_us_p99", "us", apply, 99)
	}
	put("trace.dropped_spans", "count", float64(p.end.Dropped), 0)

	coreMetrics(p, roots, put)
	counterMetrics(p, put)
	for _, d := range layerDefs {
		if _, ok := m[d.Name]; !ok {
			put(d.Name, d.Unit, 0, 0)
		}
	}
	return m
}

// coreMetrics splits estimation jobs' time into estimator (core) and
// backend time. Client-side jobs (estimate-lnr) carry job spans whose
// client-request children are the backend time; server-side jobs
// (estimate-lr) cannot carry a request id, so their backend time is the
// total of the root backend spans and their own time is reported per
// run as busy time minus that.
func coreMetrics(p *pass, roots int64, put func(string, string, float64, int)) {
	var samples, queries int64
	var busy time.Duration
	for _, j := range p.jobs {
		samples += int64(j.Samples)
		queries += j.Queries
		busy += j.Busy
	}
	if samples == 0 {
		return
	}
	wall, backend := int64(busy), roots
	cli := newSpanTree(p.client)
	if busy == 0 {
		backend = 0
		for i, s := range cli.spans {
			if s.End != 0 && s.Layer == layerJob {
				wall += cli.dur(int32(i))
				backend += covered(s.interval(), cli.kidIntervals(int32(i)))
			}
		}
	}
	if wall <= 0 {
		return
	}
	put("core.self_ms_per_sample", "ms", float64(wall-backend)/1e6/float64(samples), int(samples))
	put("core.queries_per_sample", "queries", float64(queries)/float64(samples), int(samples))
	put("core.oracle_share", "ratio", float64(backend)/float64(wall), len(p.jobs))
}

// counterMetrics differences the child's counter snapshots across the
// measured phase.
func counterMetrics(p *pass, put func(string, string, float64, int)) {
	a, b := p.mark, p.end
	if b.Cache != nil && a.Cache != nil {
		hits, misses := b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses
		if hits+misses > 0 {
			put("cache.hit_ratio", "ratio", float64(hits)/float64(hits+misses), int(hits+misses))
		}
		put("cache.evictions", "count", float64(b.Cache.Evictions-a.Cache.Evictions), 0)
		put("cache.invalidations", "count", float64(b.Cache.Invalidations-a.Cache.Invalidations), 0)
		put("cache.repeat_misses", "count", float64(b.RepeatMisses), 0)
	}
	if logical := b.Logical - a.Logical; logical > 0 {
		put("shard.fanout", "ratio", float64(b.Upstream-a.Upstream)/float64(logical), int(logical))
	}
	if b.Live != nil && a.Live != nil {
		put("live.overlay_max", "count", float64(b.OverlayMax), 0)
		put("live.compactions", "count", float64(b.Live.Compactions-a.Live.Compactions), 0)
	}
	put("store.open_s", "s", b.Setup.Open, 1)
	put("store.pages_read", "count", float64(b.Store.PagesRead), 0)
	put("store.pool_hit_ratio", "ratio", b.Store.PoolHitRate, 0)
	if p.writes > 0 {
		put("store.wal_bytes_per_op", "bytes", float64(b.Store.WALBytes-a.Store.WALBytes)/float64(p.writes), p.writes)
	}
	put("setup.listen_s", "s", b.Setup.Listen, 1)
	put("setup.partition_s", "s", b.Setup.Partition, 1)
	// GC cycles and pauses count from the child's start: a measured
	// window alone often holds no collection at all.
	put("gc.cycles", "count", float64(b.NumGC), 0)
	put("gc.pause_ms", "ms", float64(b.PauseTotalNs)/1e6, int(b.NumGC))
	if secs := p.elapsed.Seconds(); secs > 0 {
		put("gc.alloc_mb_per_s", "MB/s", float64(b.TotalAlloc-a.TotalAlloc)/(1<<20)/secs, 0)
	}
}
