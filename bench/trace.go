package main

// Tracing for the -trace run. Every span is recorded by this package's
// own wrappers around the calls into each layer's public API — nothing
// inside the program under test is instrumented:
//
//	client  (parent) tracingTransport: one HTTP request, sent → body done
//	job     (parent) one closed-loop job (estimate-lr, estimate-lnr)
//	handler (child)  traceHandler around *httpapi.Server
//	stream  (child)  the same, for long-lived streaming requests
//	cache   (child)  timedQuerier around the answer cache
//	shard   (child)  timedQuerier around the federation router
//	leaf    (child)  timedQuerier around each Service / the live database
//	apply   (child)  timedMutator around live.Mutator.Apply
//
// Client and handler spans of one request share its X-Bench-Req id;
// within a process, a span names its parent by buffer index.

import (
	"context"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
)

// layer names the boundary a span times.
type layer uint8

const (
	layerClient layer = iota
	layerJob
	layerHandler
	layerStream
	layerCache
	layerShard
	layerLeaf
	layerApply
)

// layerNames name the layers in the attribution metrics.
var layerNames = map[layer]string{
	layerClient: "client", layerJob: "job", layerHandler: "handler", layerStream: "stream",
	layerCache: "cache", layerShard: "shard", layerLeaf: "leaf", layerApply: "apply",
}

// headerReq carries a request's trace id from client to server.
const headerReq = "X-Bench-Req"

// span is one timed call. Times are nanoseconds since the recording
// tracer's epoch; Parent is the index of the enclosing span in the same
// tracer, -1 for a root.
type span struct {
	Layer  layer  `json:"l"`
	Req    uint64 `json:"r,omitempty"`
	Parent int32  `json:"p"`
	Start  int64  `json:"s"`
	End    int64  `json:"e"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer records spans into a buffer allocated once, up front. A span
// takes its index when it opens (children name it as their parent) and
// is written whole when it closes, so a slot with End == 0 is a span
// still open (or never opened) and collection skips it.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64
	reqs  atomic.Uint64
	// mu orders slot writes (shared) against collection (exclusive).
	mu      sync.RWMutex
	spans   []span
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start clears the buffer and begins recording.
func (t *tracer) start() {
	t.mu.Lock()
	clear(t.spans[:min(t.next.Load(), int64(len(t.spans)))])
	t.next.Store(0)
	t.dropped.Store(0)
	t.on.Store(true)
	t.mu.Unlock()
}

// stop ends recording and returns the closed spans, indexed as
// recorded (open slots are zero).
func (t *tracer) stop() (spans []span, dropped int64) {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := min(t.next.Load(), int64(len(t.spans)))
	return append([]span(nil), t.spans[:n]...), t.dropped.Load()
}

// open reserves a slot for a span starting now; -1 when recording is
// off or the buffer is full.
func (t *tracer) open() (int32, int64) {
	if !t.on.Load() {
		return -1, 0
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1, 0
	}
	return int32(i), t.now()
}

func (t *tracer) close(i int32, s span) {
	if i < 0 {
		return
	}
	s.End = t.now()
	t.mu.RLock()
	t.spans[i] = s
	t.mu.RUnlock()
}

// spanRef is the trace position a context carries: the request id and
// the innermost open span.
type spanRef struct {
	req uint64
	idx int32
}

type spanKey struct{}

func refOf(ctx context.Context) spanRef {
	if r, ok := ctx.Value(spanKey{}).(spanRef); ok {
		return r
	}
	return spanRef{idx: -1}
}

// openSpan is a span opened by enter; done closes it.
type openSpan struct {
	t   *tracer
	idx int32
	s   span
}

func (o openSpan) done() { o.t.close(o.idx, o.s) }

// enter opens a span of layer l under the span ctx carries and returns
// a context naming it as the parent of nested calls. A nil tracer
// records nothing.
func (t *tracer) enter(ctx context.Context, l layer) (context.Context, openSpan) {
	if t == nil {
		return ctx, openSpan{idx: -1}
	}
	ref := refOf(ctx)
	i, start := t.open()
	if i < 0 {
		return ctx, openSpan{idx: -1}
	}
	return context.WithValue(ctx, spanKey{}, spanRef{req: ref.req, idx: i}),
		openSpan{t: t, idx: i, s: span{Layer: l, Req: ref.req, Parent: ref.idx, Start: start}}
}

// tracingTransport stamps every request with a fresh trace id and
// records its client span, which ends when the caller has read the body
// to EOF or closed it.
type tracingTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.base.RoundTrip(r)
	}
	id := tt.t.reqs.Add(1)
	ref := refOf(r.Context())
	i, start := tt.t.open()
	s := span{Layer: layerClient, Req: id, Parent: ref.idx, Start: start}
	r = r.Clone(r.Context())
	r.Header.Set(headerReq, strconv.FormatUint(id, 10))
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.close(i, s)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: tt.t, idx: i, s: s}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	t    *tracer
	idx  int32
	s    span
	once sync.Once
}

func (b *tracedBody) finish() { b.once.Do(func() { b.t.close(b.idx, b.s) }) }

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// traceHandler records a handler span per request, parented on nothing
// (the client span lives in another process) and carrying the request's
// trace id, so the querier spans below it join the same request.
func (t *tracer) traceHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(headerReq), 10, 64)
		l := layerHandler
		if strings.HasSuffix(r.URL.Path, "/trace") || strings.HasSuffix(r.URL.Path, ":stream") {
			l = layerStream
		}
		ctx, sp := t.enter(context.WithValue(r.Context(), spanKey{}, spanRef{req: req, idx: -1}), l)
		next.ServeHTTP(w, r.WithContext(ctx))
		sp.done()
	})
}

// timedQuerier records a span of its layer around every call into the
// wrapped querier. It implements lbs.Wrapper, so metric probes and the
// /v1/stats walk see through it. When seen is set it also counts
// repeat misses: points reaching it a second time.
type timedQuerier struct {
	lbs.Querier
	t    *tracer
	l    layer
	seen *pointSet
}

func (q *timedQuerier) Inner() lbs.Querier { return q.Querier }

func (q *timedQuerier) QueryLR(ctx context.Context, p geom.Point, f lbs.Filter) ([]lbs.LRRecord, error) {
	q.seen.add(0, p)
	ctx, sp := q.t.enter(ctx, q.l)
	defer sp.done()
	return q.Querier.QueryLR(ctx, p, f)
}

func (q *timedQuerier) QueryLNR(ctx context.Context, p geom.Point, f lbs.Filter) ([]lbs.LNRRecord, error) {
	q.seen.add(1, p)
	ctx, sp := q.t.enter(ctx, q.l)
	defer sp.done()
	return q.Querier.QueryLNR(ctx, p, f)
}

func (q *timedQuerier) QueryLRBatch(ctx context.Context, ps []geom.Point, f lbs.Filter) ([][]lbs.LRRecord, error) {
	for _, p := range ps {
		q.seen.add(0, p)
	}
	ctx, sp := q.t.enter(ctx, q.l)
	defer sp.done()
	return q.Querier.QueryLRBatch(ctx, ps, f)
}

func (q *timedQuerier) QueryLNRBatch(ctx context.Context, ps []geom.Point, f lbs.Filter) ([][]lbs.LNRRecord, error) {
	for _, p := range ps {
		q.seen.add(1, p)
	}
	ctx, sp := q.t.enter(ctx, q.l)
	defer sp.done()
	return q.Querier.QueryLNRBatch(ctx, ps, f)
}

// pointSet counts points seen more than once, per query kind, while
// its tracer records. A nil set counts nothing.
type pointSet struct {
	t       *tracer
	mu      sync.Mutex
	seen    map[[3]uint64]struct{}
	repeats int64
}

func (s *pointSet) add(kind uint64, p geom.Point) {
	if s == nil || !s.t.on.Load() {
		return
	}
	k := [3]uint64{kind, math.Float64bits(p.X), math.Float64bits(p.Y)}
	s.mu.Lock()
	if _, dup := s.seen[k]; dup {
		s.repeats++
	} else {
		s.seen[k] = struct{}{}
	}
	s.mu.Unlock()
}

func (s *pointSet) count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repeats
}

// timedMutator records an apply span per Apply and tracks the largest
// overlay (inserts + tombstones) the live database reached.
type timedMutator struct {
	live.Mutator
	t          *tracer
	db         *live.Database
	overlayMax atomic.Int64
}

func (m *timedMutator) Apply(ctx context.Context, ops []live.Op) []live.Result {
	ctx, sp := m.t.enter(ctx, layerApply)
	res := m.Mutator.Apply(ctx, ops)
	sp.done()
	if m.t.on.Load() {
		st := m.db.Stats()
		n := int64(st.DeltaLen + st.Tombstones)
		for cur := m.overlayMax.Load(); n > cur && !m.overlayMax.CompareAndSwap(cur, n); cur = m.overlayMax.Load() {
		}
	}
	return res
}
