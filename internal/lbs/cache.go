package lbs

import (
	"container/list"
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/geom"
)

// CacheOptions configures a CachedOracle.
type CacheOptions struct {
	// Capacity is the maximum number of cached answers across all
	// shards (default 4096). It is split evenly between the cache's 16
	// independently locked LRU shards — the effective capacity rounds
	// down to a multiple of the shard count, and the shard count is
	// clamped so total residency never exceeds Capacity.
	Capacity int
	// Metric is ignored: keys are the exact bit patterns of the query
	// coordinates under any metric. It is kept so callers that name
	// their stack's metric still compile.
	Metric geo.Metric
}

// cacheShards is the number of independently locked LRU shards (a
// power of two, so a hash's low bits pick one). More shards means
// less lock contention under core.Run's parallel mode.
const cacheShards = 16

// CacheStats is a point-in-time snapshot of cache effectiveness
// counters, for the cost accounting of experiments.
type CacheStats struct {
	Hits          int64 `json:"hits"`               // answers served without touching the service (replays and coalesced waits)
	Misses        int64 `json:"misses"`             // queries forwarded (and charged) to the service
	Bypasses      int64 `json:"bypasses"`           // filtered queries forwarded uncached
	Evictions     int64 `json:"evictions"`          // entries dropped by LRU pressure
	Invalidations int64 `json:"invalidations"`      // entries dropped by mutation (Invalidate)
	Restored      int64 `json:"restored,omitempty"` // entries loaded from a persisted snapshot (warm restart)
	Entries       int64 `json:"entries"`            // entries currently resident
}

// cacheKey identifies one recorded LR answer: (point, k), the point
// as the bit patterns of its coordinates. The LNR answer at the same
// point is that answer with its locations stripped, so one key serves
// both views.
type cacheKey struct {
	k  int
	qx uint64
	qy uint64
}

// hash is FNV-1a over the key fields; the low bits pick the shard.
func (k cacheKey) hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	// The constant word stands where an answer kind once was: it keeps
	// every key's hash, and so its shard, and so the hits, misses and
	// evictions of LR traffic, what they were when LR and LNR answers
	// were keyed apart.
	mix(0)
	mix(uint64(k.k))
	mix(k.qx)
	mix(k.qy)
	return h
}

// cacheEntry is one recorded LR answer.
type cacheEntry struct {
	key  cacheKey
	recs []LRRecord
	slot int // the entry's index in its shard's pts and els; set under the shard lock
}

// cacheShard is one independently locked LRU segment, plus the
// upstream fetches in flight for its keys.
type cacheShard struct {
	mu       sync.Mutex
	cap      int
	lru      *list.List // front = most recently used; element values are *cacheEntry
	items    map[cacheKey]*list.Element
	inflight map[cacheKey]*flight
	// pts and els are the resident entries as a dense slot array: the
	// query point of the entry in each slot and its LRU element.
	// Invalidate scans pts, a flat run of coordinates, instead of
	// walking the list. A free slot holds NaN coordinates, which no
	// region contains, and sits on free; an insert or an eviction
	// touches only its own slot.
	pts  []geom.Point
	els  []*list.Element
	free []int
}

// freePt marks a free slot: NaN fails every region comparison.
var freePt = geom.Pt(math.NaN(), math.NaN())

// occupy gives a newly resident entry a slot.
func (sh *cacheShard) occupy(el *list.Element) {
	e := el.Value.(*cacheEntry)
	p := geom.Pt(math.Float64frombits(e.key.qx), math.Float64frombits(e.key.qy))
	if n := len(sh.free); n > 0 {
		e.slot = sh.free[n-1]
		sh.free = sh.free[:n-1]
		sh.pts[e.slot], sh.els[e.slot] = p, el
		return
	}
	e.slot = len(sh.pts)
	sh.pts = append(sh.pts, p)
	sh.els = append(sh.els, el)
}

// drop removes a resident entry: from the LRU, the index and its slot.
func (sh *cacheShard) drop(el *list.Element) {
	e := el.Value.(*cacheEntry)
	sh.lru.Remove(el)
	delete(sh.items, e.key)
	sh.pts[e.slot], sh.els[e.slot] = freePt, nil
	sh.free = append(sh.free, e.slot)
}

// flight is one upstream fetch in progress. Concurrent misses on its
// key wait for it instead of fetching (and paying for) the same answer
// again. e and err are written once, under the shard lock, before done
// closes.
type flight struct {
	key  cacheKey
	done chan struct{}
	e    *cacheEntry // the answer (memoized or not); nil when none came back
	err  error
	// detached marks a flight an invalidation overlapped: its answer
	// may predate the mutation, so it is handed to the callers already
	// waiting but never memoized, and new lookups start a fresh fetch.
	detached bool
}

// lookup resolves key under one lock acquisition: the cached entry if
// resident, else the flight already fetching it (wait), else a new
// flight the caller must lead and later land.
func (sh *cacheShard) lookup(key cacheKey) (e *cacheEntry, wait, lead *flight) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		sh.lru.MoveToFront(el)
		return el.Value.(*cacheEntry), nil, nil
	}
	if f, ok := sh.inflight[key]; ok {
		return nil, f, nil
	}
	f := &flight{key: key, done: make(chan struct{})}
	sh.inflight[key] = f
	return nil, nil, f
}

// land publishes a led flight's outcome and returns how many entries
// memoizing it evicted. Storing the answer and retiring the flight
// happen under one lock, so no lookup ever finds neither and fetches
// a key whose answer is already in hand.
func (sh *cacheShard) land(f *flight, e *cacheEntry, err error, memoize bool) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	evicted := 0
	if !f.detached {
		delete(sh.inflight, f.key)
		if memoize {
			evicted = sh.putLocked(e)
		}
	}
	f.e, f.err = e, err
	close(f.done)
	return evicted
}

// put inserts (or refreshes) an entry and returns how many entries
// were evicted to make room.
func (sh *cacheShard) put(e *cacheEntry) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.putLocked(e)
}

func (sh *cacheShard) putLocked(e *cacheEntry) int {
	if el, ok := sh.items[e.key]; ok {
		e.slot = el.Value.(*cacheEntry).slot
		el.Value = e
		sh.lru.MoveToFront(el)
		return 0
	}
	el := sh.lru.PushFront(e)
	sh.items[e.key] = el
	sh.occupy(el)
	evicted := 0
	for sh.lru.Len() > sh.cap {
		sh.drop(sh.lru.Back())
		evicted++
	}
	return evicted
}

func (sh *cacheShard) len() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lru.Len()
}

// CachedOracle memoizes the LR answers of an inner service-side
// Querier in a concurrent sharded LRU keyed by (exact point, k).
// Cache hits replay the recorded answer without consuming the inner
// service's budget — client-side memoization, not a change to the
// service contract. An LNR query is answered as the LR answer at the
// same point with its locations stripped (LNROf), so one entry answers
// both views and the inner querier must answer LR. It implements
// Querier (and therefore the estimators' Oracle interface), so any
// estimator can run over it unchanged.
//
// Concurrent misses on one key are coalesced: the first caller fetches
// and pays, later ones — including repeats of the key inside one batch
// — wait for its answer (or its error) and are never charged, so
// misses never exceed distinct keys plus evictions and invalidations.
//
// Records are returned by reference: callers must treat cached answers
// as immutable, exactly as they must treat the simulator's shared
// Attrs/Tags maps.
type CachedOracle struct {
	inner         Querier
	shards        []*cacheShard
	shardMask     uint64
	hits          atomic.Int64
	misses        atomic.Int64
	bypasses      atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	restored      atomic.Int64
}

var _ Querier = (*CachedOracle)(nil)

// NewCachedOracle wraps inner with an answer cache. Unfiltered
// queries are cacheable; queries carrying a non-nil functional filter
// bypass the cache — forwarded and charged but never stored or
// replayed — because two functional filters cannot be told apart, so
// a front shared by differently filtered callers (an HTTP gateway)
// can never replay a filtered answer for the wrong selection.
func NewCachedOracle(inner Querier, opts CacheOptions) *CachedOracle {
	if opts.Capacity <= 0 {
		opts.Capacity = 4096
	}
	shards := cacheShards
	// A shard holds at least one entry, so clamp the shard count to
	// the capacity: total residency must never exceed Capacity.
	for shards > 1 && shards > opts.Capacity {
		shards /= 2
	}
	perShard := opts.Capacity / shards
	c := &CachedOracle{
		inner:     inner,
		shards:    make([]*cacheShard, shards),
		shardMask: uint64(shards - 1),
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:      perShard,
			lru:      list.New(),
			items:    make(map[cacheKey]*list.Element, perShard),
			inflight: make(map[cacheKey]*flight),
		}
	}
	return c
}

// normZero collapses negative zero onto positive zero: -0.0 and +0.0
// are the same query point (they compare equal and yield identical
// distances), but their Float64bits differ, so keying on the raw bit
// pattern would give the one point two cache entries.
func normZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// keyFor assembles the cache key of p: its coordinates' bit
// patterns, so a hit replays an answer recorded at exactly p.
func (c *CachedOracle) keyFor(p geom.Point) cacheKey {
	return cacheKey{k: c.inner.K(), qx: math.Float64bits(normZero(p.X)), qy: math.Float64bits(normZero(p.Y))}
}

func (c *CachedOracle) shardFor(key cacheKey) *cacheShard {
	return c.shards[key.hash()&c.shardMask]
}

// Stats returns a snapshot of the effectiveness counters.
func (c *CachedOracle) Stats() CacheStats {
	var entries int64
	for _, sh := range c.shards {
		entries += int64(sh.len())
	}
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Bypasses:      c.bypasses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Restored:      c.restored.Load(),
		Entries:       entries,
	}
}

// inRegion is the invalidation predicate: p inside region, edges
// included. NaN coordinates (free slots) are never inside.
func inRegion(region geom.Rect, p geom.Point) bool {
	return region.Min.X <= p.X && p.X <= region.Max.X && region.Min.Y <= p.Y && p.Y <= region.Max.Y
}

// invalidate drops every entry whose query point lies in region and
// returns how many were removed. Flights on matching keys are
// detached: their answers may predate the mutation being invalidated,
// so they are never memoized and later lookups fetch afresh.
func (sh *cacheShard) invalidate(region geom.Rect) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	removed := 0
	for slot, p := range sh.pts {
		if inRegion(region, p) {
			sh.drop(sh.els[slot])
			removed++
		}
	}
	for key, f := range sh.inflight {
		if inRegion(region, geom.Pt(math.Float64frombits(key.qx), math.Float64frombits(key.qy))) {
			f.detached = true
			delete(sh.inflight, key)
		}
	}
	return removed
}

// Invalidate drops every cached answer whose query point lies in
// region and returns how many entries were dropped. Mutation-driven
// epoch invalidation calls this with the dirty region of a batch of
// mutations — the bounding box of disks of the service's maximum
// match radius around every mutated effective location — so entries
// for queries provably unaffected by the mutation survive. The
// infinite region — the dirty region of a service without MaxRadius —
// drops every entry. Each shard scans its dense slot array, so the
// cost is a pass over coordinates, not over the LRU list.
func (c *CachedOracle) Invalidate(region geom.Rect) int64 {
	var dropped int64
	for _, sh := range c.shards {
		dropped += int64(sh.invalidate(region))
	}
	c.invalidations.Add(dropped)
	return dropped
}

// Inner returns the wrapped querier, so observers (e.g. the stats
// endpoint of internal/httpapi) can walk a wrapper chain down to the
// service that owns the budget.
func (c *CachedOracle) Inner() Querier { return c.inner }

// Bounds implements Querier.
func (c *CachedOracle) Bounds() geom.Rect { return c.inner.Bounds() }

// K implements Querier.
func (c *CachedOracle) K() int { return c.inner.K() }

// QueryCount reports the inner service's query count — the paper's
// cost metric. Cache hits do not appear in it; Stats().Hits counts
// them.
func (c *CachedOracle) QueryCount() int64 { return c.inner.QueryCount() }

// errFillAborted is what waiters receive when the fetch they were
// waiting on ended without an answer (its leader panicked).
var errFillAborted = errors.New("lbs: cache fill aborted")

// await blocks until flight f lands or ctx ends. retry reports that f
// failed on a cancellation while ctx is still live — the leader's own
// context ended, not this caller's — so the caller should look the key
// up again instead of inheriting another caller's cancellation.
func await(ctx context.Context, f *flight) (retry bool, err error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return false, ctx.Err()
	}
	canceled := errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)
	return canceled && ctx.Err() == nil, nil
}

// share hands a landed flight's outcome to one waiter and counts it:
// a full answer as a hit (nothing was charged for it), a degraded
// answer as a bypass, an error as neither — the same counters the
// leader's own outcome feeds, minus the miss it paid for.
func (c *CachedOracle) share(f *flight) ([]LRRecord, error) {
	var recs []LRRecord
	if f.e != nil {
		recs = f.e.recs
	}
	switch {
	case f.err == nil && f.e != nil:
		c.hits.Add(1)
	case IsPartial(f.err):
		c.bypasses.Add(1)
	}
	return recs, f.err
}

// landAll lands every flight of leads still in flight with
// errFillAborted; leaders defer it so a panicking fetch never strands
// its waiters.
func (c *CachedOracle) landAll(leads []*flight) {
	for _, f := range leads {
		select {
		case <-f.done:
		default:
			c.shardFor(f.key).land(f, nil, errFillAborted, false)
		}
	}
}

// evicted maintains the eviction counter.
func (c *CachedOracle) evicted(n int) {
	if n > 0 {
		c.evictions.Add(int64(n))
	}
}

// QueryLR implements Querier: hit → replay, filtered → bypass, key
// already in flight → wait for that fetch's answer (never charged),
// miss → forward, record, count. Concurrent misses on one key
// therefore go upstream once. Errors are never cached.
func (c *CachedOracle) QueryLR(ctx context.Context, q geom.Point, filter Filter) ([]LRRecord, error) {
	if filter != nil {
		c.bypasses.Add(1)
		return c.inner.QueryLR(ctx, q, filter)
	}
	key := c.keyFor(q)
	for {
		e, wait, lead := c.shardFor(key).lookup(key)
		if e != nil {
			c.hits.Add(1)
			return e.recs, nil
		}
		if lead != nil {
			return c.lead(ctx, q, lead)
		}
		retry, err := await(ctx, wait)
		if err != nil {
			return nil, err
		}
		if !retry {
			return c.share(wait)
		}
	}
}

// lead fetches the answer for a key this caller leads and lands it
// for the key's waiters.
func (c *CachedOracle) lead(ctx context.Context, q geom.Point, f *flight) ([]LRRecord, error) {
	defer c.landAll([]*flight{f})
	recs, err := c.inner.QueryLR(ctx, q, nil)
	sh := c.shardFor(f.key)
	switch {
	case err == nil:
		c.misses.Add(1)
		c.evicted(sh.land(f, &cacheEntry{key: f.key, recs: recs}, nil, true))
	case IsPartial(err):
		// A degraded answer is served but never memoized: once the
		// missing member recovers, the same key must re-fetch the full
		// answer instead of replaying the contaminated one.
		c.bypasses.Add(1)
		sh.land(f, &cacheEntry{key: f.key, recs: recs}, err, false)
	default:
		sh.land(f, nil, err, false)
		recs = nil
	}
	return recs, err
}

// QueryLRBatch implements Querier: answer hits from the cache, forward
// the misses this batch leads as one (smaller) batch, record what came
// back, then collect the keys other callers were already fetching —
// and keys repeated within the batch, which wait on the batch's own,
// by then landed, flights. Partial-budget semantics follow
// Service.QueryLRBatch — nil entries mark the positions the budget
// could not cover, and cache hits are answered even after the budget
// dies (memoized answers are free). Filtered batches bypass entirely.
func (c *CachedOracle) QueryLRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LRRecord, error) {
	if filter != nil {
		c.bypasses.Add(int64(len(pts)))
		return c.inner.QueryLRBatch(ctx, pts, filter)
	}
	out := make([][]LRRecord, len(pts))
	var missIdx, waitIdx []int
	var missPts []geom.Point
	var leads, waits []*flight
	for i, p := range pts {
		key := c.keyFor(p)
		e, wait, lead := c.shardFor(key).lookup(key)
		switch {
		case e != nil:
			c.hits.Add(1)
			out[i] = e.recs
		case lead != nil:
			missIdx = append(missIdx, i)
			missPts = append(missPts, p)
			leads = append(leads, lead)
		default:
			waitIdx = append(waitIdx, i)
			waits = append(waits, wait)
		}
	}
	var err error
	if len(leads) > 0 {
		defer c.landAll(leads)
		var answers [][]LRRecord
		answers, err = c.inner.QueryLRBatch(ctx, missPts, nil)
		partial := IsPartial(err)
		for j, f := range leads {
			var recs []LRRecord
			if j < len(answers) {
				recs = answers[j]
			}
			out[missIdx[j]] = recs
			sh := c.shardFor(f.key)
			switch {
			case recs == nil:
				// Uncovered position: its waiters share the batch error.
				sh.land(f, nil, err, false)
			case partial:
				// The annotation does not say which positions were
				// degraded, so none of the batch is memoized.
				c.bypasses.Add(1)
				sh.land(f, &cacheEntry{key: f.key, recs: recs}, err, false)
			default:
				c.misses.Add(1)
				c.evicted(sh.land(f, &cacheEntry{key: f.key, recs: recs}, nil, true))
			}
		}
	}
	var retryIdx []int
	var retryPts []geom.Point
	for j, f := range waits {
		retry, werr := await(ctx, f)
		switch {
		case werr != nil:
			err = firstErr(err, werr)
		case retry:
			retryIdx = append(retryIdx, waitIdx[j])
			retryPts = append(retryPts, pts[waitIdx[j]])
		default:
			recs, ferr := c.share(f)
			out[waitIdx[j]] = recs
			err = firstErr(err, ferr)
		}
	}
	if len(retryPts) > 0 {
		answers, rerr := c.QueryLRBatch(ctx, retryPts, nil)
		for j, recs := range answers {
			out[retryIdx[j]] = recs
		}
		err = firstErr(err, rerr)
	}
	return out, err
}

// firstErr merges a batch's errors: the first one wins, except that a
// hard error replaces a partial-answer annotation.
func firstErr(cur, next error) error {
	if cur == nil || (IsPartial(cur) && next != nil && !IsPartial(next)) {
		return next
	}
	return cur
}

// QueryLNR implements Querier: the LR answer at q, locations stripped.
func (c *CachedOracle) QueryLNR(ctx context.Context, q geom.Point, filter Filter) ([]LNRRecord, error) {
	return LNROf(c.QueryLR(ctx, q, filter))
}

// QueryLNRBatch implements Querier: the LR batch, locations stripped.
func (c *CachedOracle) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LNRRecord, error) {
	return LNRBatchOf(c.QueryLRBatch(ctx, pts, filter))
}
