// Package httpapi exposes a simulated LBS over HTTP and provides a
// client that implements the estimators' Oracle interface — the
// blueprint for running the algorithms against a real networked
// service. Both sides use only net/http and encoding/json, except the
// server's query answers, which are appended byte-identically to
// encoding/json (answer.go), and its batch request bodies, which are
// scanned by hand when they have the shape the client writes
// (batchbody.go).
//
// Wire protocol (JSON over GET, plus POST for batches):
//
//	GET /v1/meta                      → {k, min_x, min_y, max_x, max_y}
//	GET /v1/lr?x=..&y=..[&name=..][&category=..]   → {results: [...with locations]}
//	GET /v1/lnr?x=..&y=..[&name=..][&category=..]  → {results: [...ids+attrs only]}
//	POST /v1/query/lr:batch   {points:[{x,y},...][,name][,category]}
//	  → {answers:[{results:[...]}|null, ...][, exhausted]}
//	POST /v1/query/lnr:batch  (same shape, rank-only results)
//	POST /v1/tuples:stream    NDJSON mutation ops → NDJSON per-op acks
//	                          (live backends only; see ingest.go)
//
// A batch answers up to maxBatchPoints locations in one HTTP request
// and one server-side budget reservation; answers are index-aligned
// with the points, a null answer marks a position the budget could
// not cover (exhausted=true rides along), and each answered point
// costs one unit of budget. Clients under heavy concurrent traffic
// should prefer the batch endpoints: the per-request overhead is paid
// once per batch instead of once per sample.
//
// Selection pass-through (§5.1) is declarative on the wire: name and
// category equality filters ride along as query parameters (or batch
// body fields). The client is constructed with a fixed Selection; the
// per-call filter argument of the Oracle interface must be nil (a
// functional filter cannot cross the network).
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/live"
)

// Selection is the declarative server-side filter of the wire
// protocol: zero values match everything.
type Selection struct {
	Name     string
	Category string
}

func (s Selection) filter() lbs.Filter {
	if s.Name == "" && s.Category == "" {
		return nil
	}
	return func(t *lbs.Tuple) bool {
		return (s.Name == "" || t.Name == s.Name) &&
			(s.Category == "" || t.Category == s.Category)
	}
}

// wire types

type metaResponse struct {
	K    int     `json:"k"`
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
	// Metric names the backend's distance metric (euclidean |
	// haversine). Absent on pre-geodesic servers, which clients read as
	// euclidean.
	Metric string `json:"metric,omitempty"`
}

// wireRecord is the client's decode shape of one answer record. The
// server writes the same JSON with appendLR/appendLNR (answer.go);
// TestAnswerEncodingMatchesJSON keeps the two in step.
type wireRecord struct {
	ID       int64              `json:"id"`
	X        *float64           `json:"x,omitempty"`
	Y        *float64           `json:"y,omitempty"`
	Dist     *float64           `json:"dist,omitempty"`
	Name     string             `json:"name,omitempty"`
	Category string             `json:"category,omitempty"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Tags     map[string]string  `json:"tags,omitempty"`
}

type queryResponse struct {
	Results []wireRecord `json:"results"`
}

// codeBudgetExhausted marks a 429 caused by the service's hard query
// budget, which no amount of retrying will lift — as opposed to a
// transient rate-limit 429, which retry policies may wait out.
const codeBudgetExhausted = "budget_exhausted"

// codeJobsExhausted marks a 429 caused by the job table being at
// capacity with every retained job still running — transient server
// state that clears as soon as one job settles. Unlike a spent budget
// it IS worth retrying, and because the refused submission created no
// job, even non-idempotent clients may replay it safely.
const codeJobsExhausted = "jobs_exhausted"

type errorResponse struct {
	Error string `json:"error"`
	// Code is a machine-readable error class (codeBudgetExhausted).
	Code string `json:"code,omitempty"`
}

// Partial-answer headers: a federated backend that lost a shard still
// answers 200 from the survivors, carrying the lbs.PartialError
// annotation as response headers so remote callers keep the degraded-
// mode contract. Degraded counts positions answered from a partial
// federation, Dropped positions with no answer (their wire entries are
// null), Missing the member subqueries lost or skipped.
const (
	headerPartialDegraded = "X-Lbs-Partial-Degraded"
	headerPartialDropped  = "X-Lbs-Partial-Dropped"
	headerPartialMissing  = "X-Lbs-Partial-Missing"
)

// setPartialHeaders renders a partial annotation onto a 200 response.
func setPartialHeaders(w http.ResponseWriter, pe *lbs.PartialError) {
	h := w.Header()
	h.Set(headerPartialDegraded, strconv.Itoa(pe.Degraded))
	if pe.Dropped > 0 {
		h.Set(headerPartialDropped, strconv.Itoa(pe.Dropped))
	}
	if pe.Missing > 0 {
		h.Set(headerPartialMissing, strconv.Itoa(pe.Missing))
	}
}

// partialOfHeaders reconstructs the annotation client-side; nil when
// the response carries none.
func partialOfHeaders(h http.Header) *lbs.PartialError {
	deg := h.Get(headerPartialDegraded)
	if deg == "" {
		return nil
	}
	pe := &lbs.PartialError{}
	pe.Degraded, _ = strconv.Atoi(deg)
	pe.Dropped, _ = strconv.Atoi(h.Get(headerPartialDropped))
	pe.Missing, _ = strconv.Atoi(h.Get(headerPartialMissing))
	return pe
}

// batch wire types

type wirePoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

type batchRequest struct {
	Points   []wirePoint `json:"points"`
	Name     string      `json:"name,omitempty"`
	Category string      `json:"category,omitempty"`
}

type batchResponse struct {
	// Answers is index-aligned with the request points; a null entry
	// marks a point the budget could not cover.
	Answers []*queryResponse `json:"answers"`
	// Exhausted reports that the service budget died inside (or right
	// at the end of) this batch.
	Exhausted bool `json:"exhausted,omitempty"`
}

// maxBatchPoints caps the points per batch request and
// maxBatchBodyBytes caps the request body read before decoding, so
// one POST can bound neither unbounded work nor unbounded memory on
// the server. 1024 points encode to ~50 KB; 256 KB leaves generous
// slack for selection strings.
const (
	maxBatchPoints    = 1024
	maxBatchBodyBytes = 256 << 10
)

// ErrPerCallFilter is returned by the HTTP client when a query
// carries a non-nil functional filter: closures cannot cross the
// network, so selections must be configured declaratively (Selection)
// per client. A federation front over remote upstreams surfaces it as
// a 400 — filtered queries need per-selection upstream clients.
var ErrPerCallFilter = errors.New("httpapi: per-call filters unsupported; configure Selection on the client")

// Server adapts a service view into an http.Handler. Any lbs.Querier
// works as the backend: the raw simulator, or a CachedOracle layered
// in front of it (a caching gateway). Beyond the raw oracle endpoints,
// the server runs estimation jobs (see handleEstimate and the jobs
// package) and reports live service stats (/v1/stats).
type Server struct {
	svc     lbs.Querier
	mutator live.Mutator
	jobs    *jobs.Manager
	mux     *http.ServeMux
	// metric is the backend's distance metric, probed once at
	// construction (metricOf) and advertised on /v1/meta and /v1/stats.
	metric geo.Metric
	// partials counts answers served degraded (partial federation).
	partials atomic.Int64
}

// ServerOptions configures the optional subsystems of a Server.
type ServerOptions struct {
	// Jobs configures the estimation-job manager (retention cap,
	// default per-job query budget).
	Jobs jobs.ManagerOptions
	// Mutator, when non-nil, enables the streaming mutation endpoint
	// (POST /v1/tuples:stream) against a live backend. It should be the
	// live database (or cluster) underlying svc, so queries observe the
	// applied mutations. Nil means an immutable backend: the endpoint
	// answers 501.
	Mutator live.Mutator
}

// NewServer wraps a service backend with default options.
func NewServer(svc lbs.Querier) *Server { return NewServerWith(svc, ServerOptions{}) }

// NewServerWith wraps a service backend.
func NewServerWith(svc lbs.Querier, opts ServerOptions) *Server {
	s := &Server{
		svc:     svc,
		mutator: opts.Mutator,
		jobs:    jobs.NewManager(svc, opts.Jobs),
		mux:     http.NewServeMux(),
		metric:  metricOf(svc),
	}
	s.mux.HandleFunc("/v1/meta", s.handleMeta)
	s.mux.HandleFunc("/v1/lr", s.handleLR)
	s.mux.HandleFunc("/v1/lnr", s.handleLNR)
	s.mux.HandleFunc("/v1/query/lr:batch", s.handleLRBatch)
	s.mux.HandleFunc("/v1/query/lnr:batch", s.handleLNRBatch)
	s.mux.HandleFunc("POST /v1/tuples:stream", s.handleTupleStream)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	return s
}

// Jobs returns the server's estimation-job manager (e.g. for a
// graceful CancelAll at shutdown).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON renders v as json.Encoder.Encode would. It marshals before
// writing the status, so a value encoding/json refuses (a NaN in a job
// view, say) is a 500 with an errorResponse body, not an empty 200.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: err.Error()}) // a string field always marshals
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody writes a complete JSON body in one Write with an explicit
// Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client has gone
}

// writeQueryError renders a failed backend query: budget exhaustion is
// a 429 carrying its machine-readable code (permanent — clients must
// not retry it); anything else is a 500 (transient from the client's
// point of view).
func writeQueryError(w http.ResponseWriter, err error) {
	if errors.Is(err, lbs.ErrBudgetExhausted) {
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), Code: codeBudgetExhausted})
		return
	}
	if errors.Is(err, ErrPerCallFilter) {
		// The backend (e.g. a federation of remote upstreams) cannot
		// apply this request's selection: a client-side request
		// problem, not a server fault.
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	b := s.svc.Bounds()
	writeJSON(w, http.StatusOK, metaResponse{
		K:    s.svc.K(),
		MinX: b.Min.X, MinY: b.Min.Y, MaxX: b.Max.X, MaxY: b.Max.Y,
		Metric: s.metric.String(),
	})
}

// metricOf walks a backend's wrapper chain (lbs.Wrapper) for a layer
// that reports its distance metric — lbs.Service, shard.Router,
// live.Database and live.Cluster all do. A chain exposing none is
// Euclidean: every pre-geodesic backend ranks in the plane.
func metricOf(q lbs.Querier) geo.Metric {
	if mm, ok := lbs.Find[interface{ Metric() geo.Metric }](q); ok {
		return mm.Metric()
	}
	return geo.Euclidean
}

// parseQuery extracts the location and selection from the URL.
// ParseFloat accepts NaN and ±Inf, which no backend can rank by, so
// they are rejected with the malformed values.
func parseQuery(r *http.Request) (geom.Point, Selection, error) {
	q := r.URL.Query()
	x, errX := strconv.ParseFloat(q.Get("x"), 64)
	y, errY := strconv.ParseFloat(q.Get("y"), 64)
	if errX != nil || errY != nil || math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
		return geom.Point{}, Selection{}, fmt.Errorf("invalid, missing or non-finite x/y")
	}
	return geom.Pt(x, y), Selection{Name: q.Get("name"), Category: q.Get("category")}, nil
}

func (s *Server) handleLR(w http.ResponseWriter, r *http.Request) {
	p, sel, err := parseQuery(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	recs, err := s.svc.QueryLR(r.Context(), p, sel.filter())
	if pe, ok := lbs.AsPartial(err); ok {
		s.partials.Add(1)
		setPartialHeaders(w, pe)
	} else if err != nil {
		writeQueryError(w, err)
		return
	}
	writeAnswer(w, func(b []byte) ([]byte, error) { return appendLR(b, recs) })
}

func (s *Server) handleLNR(w http.ResponseWriter, r *http.Request) {
	p, sel, err := parseQuery(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	recs, err := s.svc.QueryLNR(r.Context(), p, sel.filter())
	if pe, ok := lbs.AsPartial(err); ok {
		s.partials.Add(1)
		setPartialHeaders(w, pe)
	} else if err != nil {
		writeQueryError(w, err)
		return
	}
	writeAnswer(w, func(b []byte) ([]byte, error) { return appendLNR(b, recs) })
}

// serveBatch is the protocol logic shared by both batch endpoints:
// parse, query through the given batch path, and render the aligned
// answers. A batch the budget covered partially returns 200 with nil
// holes and exhausted=true; a batch it covered not at all behaves
// like the single-query path (429).
func serveBatch[T any](s *Server, w http.ResponseWriter, r *http.Request,
	query func(context.Context, []geom.Point, lbs.Filter) ([][]T, error),
	appendAnswer func([]byte, []T) ([]byte, error)) {

	pts, sel, err := parseBatch(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	answers, err := query(r.Context(), pts, sel.filter())
	exhausted := errors.Is(err, lbs.ErrBudgetExhausted)
	if pe, ok := lbs.AsPartial(err); ok {
		// Degraded but answered: serve the survivors' merge (dropped
		// positions stay null) with the annotation in the headers.
		s.partials.Add(1)
		setPartialHeaders(w, pe)
	} else if err != nil && !exhausted {
		writeQueryError(w, err)
		return
	}
	if exhausted && !slices.ContainsFunc(answers, func(recs []T) bool { return recs != nil }) {
		writeQueryError(w, err)
		return
	}
	writeAnswer(w, func(b []byte) ([]byte, error) { return appendBatch(b, answers, exhausted, appendAnswer) })
}

func (s *Server) handleLRBatch(w http.ResponseWriter, r *http.Request) {
	serveBatch(s, w, r, s.svc.QueryLRBatch, appendLR)
}

func (s *Server) handleLNRBatch(w http.ResponseWriter, r *http.Request) {
	serveBatch(s, w, r, s.svc.QueryLNRBatch, appendLNR)
}

// Client is an HTTP implementation of the estimators' Oracle
// interface. It fetches the service metadata once at construction and
// counts queries locally (mirroring how a real client tracks its own
// quota consumption). Transient failures — transport errors, 5xx, and
// 429s that are genuine rate limiting rather than a spent budget — are
// retried with jittered exponential backoff, so
// remote estimation runs survive flaky gateways. Beyond raw queries,
// the client drives server-side estimation jobs (Estimate, Job,
// CancelJob, FollowJobTrace, WaitJob).
type Client struct {
	base    string
	hc      *http.Client
	sel     Selection
	k       int
	bounds  geom.Rect
	metric  geo.Metric
	queries atomic.Int64
}

// metaTimeout bounds the construction-time /v1/meta probe when the
// caller's context carries no deadline of its own and the HTTP client
// has no Timeout, so a dead gateway cannot hang NewClient forever.
const metaTimeout = 10 * time.Second

// NewClient connects to a server at baseURL (e.g. the URL of an
// httptest server or a deployed gateway). sel is the fixed declarative
// selection sent with every query. httpClient may be nil for
// http.DefaultClient. The /v1/meta probe honors ctx (deadline and
// cancellation); without a deadline from either ctx or the client, a
// default timeout applies.
func NewClient(ctx context.Context, baseURL string, sel Selection, httpClient *http.Client) (*Client, error) {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: baseURL, hc: httpClient, sel: sel}
	if _, ok := ctx.Deadline(); !ok && httpClient.Timeout == 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, metaTimeout)
		defer cancel()
	}
	resp, err := c.do(ctx, http.MethodGet, baseURL+"/v1/meta", nil)
	if err != nil {
		return nil, fmt.Errorf("httpapi: meta: %w", err)
	}
	defer resp.Body.Close()
	var meta metaResponse
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return nil, fmt.Errorf("httpapi: meta decode: %w", err)
	}
	c.k = meta.K
	c.bounds = geom.NewRect(geom.Pt(meta.MinX, meta.MinY), geom.Pt(meta.MaxX, meta.MaxY))
	// An absent metric field (pre-geodesic server) parses as Euclidean.
	c.metric, err = geo.ParseMetric(meta.Metric)
	if err != nil {
		return nil, fmt.Errorf("httpapi: meta: %w", err)
	}
	return c, nil
}

// Bounds implements core.Oracle.
func (c *Client) Bounds() geom.Rect { return c.bounds }

// K implements core.Oracle.
func (c *Client) K() int { return c.k }

// Metric is the distance metric the remote service advertised on
// /v1/meta (Euclidean for pre-geodesic servers). Distances in wire
// records are expressed in it, so estimators compiled for one metric
// must not run against a client reporting another.
func (c *Client) Metric() geo.Metric { return c.metric }

// QueryCount implements core.Oracle.
func (c *Client) QueryCount() int64 { return c.queries.Load() }

// get performs one wire query with the client's retry policy; the
// requests are built with ctx so the caller can cancel them in flight.
func (c *Client) get(ctx context.Context, endpoint string, p geom.Point) (*queryResponse, error) {
	v := url.Values{}
	v.Set("x", strconv.FormatFloat(p.X, 'g', -1, 64))
	v.Set("y", strconv.FormatFloat(p.Y, 'g', -1, 64))
	if c.sel.Name != "" {
		v.Set("name", c.sel.Name)
	}
	if c.sel.Category != "" {
		v.Set("category", c.sel.Category)
	}
	resp, err := c.do(ctx, http.MethodGet, c.base+endpoint+"?"+v.Encode(), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e := decodeError(resp)
		return nil, fmt.Errorf("httpapi: status %d: %s", resp.StatusCode, e.Error)
	}
	var out queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("httpapi: decode: %w", err)
	}
	c.queries.Add(1)
	// A degraded upstream answers 200 with the partial annotation in
	// the headers; reconstruct it so local and remote callers see the
	// same contract (records plus *lbs.PartialError).
	if pe := partialOfHeaders(resp.Header); pe != nil {
		return &out, pe
	}
	return &out, nil
}

// QueryLR implements core.Oracle. filter must be nil: selections are
// fixed per client (they travel as URL parameters; functional filters
// cannot cross the network).
func (c *Client) QueryLR(ctx context.Context, p geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	if filter != nil {
		return nil, ErrPerCallFilter
	}
	out, err := c.get(ctx, "/v1/lr", p)
	if err != nil && !lbs.IsPartial(err) {
		return nil, err
	}
	return lrOfWire(out.Results), err
}

// lrOfWire decodes wire records into LR result rows.
func lrOfWire(results []wireRecord) []lbs.LRRecord {
	recs := make([]lbs.LRRecord, len(results))
	for i, w := range results {
		rec := lbs.LRRecord{
			ID: w.ID, Name: w.Name, Category: w.Category,
			Attrs: w.Attrs, Tags: w.Tags,
		}
		if w.X != nil && w.Y != nil {
			rec.Loc = geom.Pt(*w.X, *w.Y)
		}
		if w.Dist != nil {
			rec.Dist = *w.Dist
		}
		recs[i] = rec
	}
	return recs
}

// QueryLNR implements core.Oracle (same filter restriction as QueryLR).
func (c *Client) QueryLNR(ctx context.Context, p geom.Point, filter lbs.Filter) ([]lbs.LNRRecord, error) {
	if filter != nil {
		return nil, ErrPerCallFilter
	}
	out, err := c.get(ctx, "/v1/lnr", p)
	if err != nil && !lbs.IsPartial(err) {
		return nil, err
	}
	return lnrOfWire(out.Results), err
}

// lnrOfWire decodes wire records into LNR result rows.
func lnrOfWire(results []wireRecord) []lbs.LNRRecord {
	recs := make([]lbs.LNRRecord, len(results))
	for i, w := range results {
		recs[i] = lbs.LNRRecord{
			ID: w.ID, Name: w.Name, Category: w.Category,
			Attrs: w.Attrs, Tags: w.Tags,
		}
	}
	return recs
}

// postBatch performs one batch POST and returns the decoded response
// with the answered count already folded into the client's local
// query counter.
func (c *Client) postBatch(ctx context.Context, endpoint string, pts []geom.Point) (*batchResponse, error) {
	req := batchRequest{
		Points:   make([]wirePoint, len(pts)),
		Name:     c.sel.Name,
		Category: c.sel.Category,
	}
	for i, p := range pts {
		req.Points[i] = wirePoint{X: p.X, Y: p.Y}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("httpapi: batch encode: %w", err)
	}
	// Batch POSTs retry like GETs: a batch query is semantically
	// idempotent (same points, same answers), so replaying a failed
	// attempt is safe — at worst the lost attempt's budget charge is
	// paid again, the same exposure a per-point GET retry has.
	resp, err := c.do(ctx, http.MethodPost, c.base+endpoint, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e := decodeError(resp)
		return nil, fmt.Errorf("httpapi: batch status %d: %s", resp.StatusCode, e.Error)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("httpapi: batch decode: %w", err)
	}
	answered := int64(0)
	for _, a := range out.Answers {
		if a != nil {
			answered++
		}
	}
	c.queries.Add(answered)
	if pe := partialOfHeaders(resp.Header); pe != nil {
		return &out, pe
	}
	return &out, nil
}

// clientBatch is the decode shape shared by both client batch
// methods: answers realigned to the request points, nil holes
// preserved, Exhausted mapped back to lbs.ErrBudgetExhausted. Batches
// larger than the server's per-POST point cap are transparently split
// into sequential chunk requests, so callers may size batches freely
// (e.g. an NNO probe set larger than maxBatchPoints); a budget death in
// one chunk stops the remaining chunks, leaving their positions nil.
func clientBatch[T any](c *Client, ctx context.Context, endpoint string, pts []geom.Point,
	filter lbs.Filter, decode func([]wireRecord) []T) ([][]T, error) {

	if filter != nil {
		return nil, ErrPerCallFilter
	}
	if len(pts) == 0 {
		return nil, nil
	}
	out := make([][]T, len(pts))
	// Partial annotations from degraded upstream chunks accumulate and
	// ride back alongside the answers (nil unless some chunk degraded).
	var partial *lbs.PartialError
	for off := 0; off < len(pts); off += maxBatchPoints {
		end := off + maxBatchPoints
		if end > len(pts) {
			end = len(pts)
		}
		resp, err := c.postBatch(ctx, endpoint, pts[off:end])
		if pe, ok := lbs.AsPartial(err); ok {
			if partial == nil {
				partial = &lbs.PartialError{}
			}
			partial.Degraded += pe.Degraded
			partial.Dropped += pe.Dropped
			partial.Missing += pe.Missing
		} else if err != nil {
			if off > 0 && errors.Is(err, lbs.ErrBudgetExhausted) {
				return out, err
			}
			return nil, err
		}
		for i, a := range resp.Answers {
			if off+i >= len(pts) {
				break
			}
			if a == nil {
				continue
			}
			out[off+i] = decode(a.Results)
		}
		if resp.Exhausted {
			return out, lbs.ErrBudgetExhausted
		}
	}
	if partial != nil {
		return out, partial
	}
	return out, nil
}

// QueryLRBatch answers m location-returned queries in a single HTTP
// round-trip (the lbs.Querier batch contract: index-aligned answers,
// nil for positions the server budget could not cover, alongside
// lbs.ErrBudgetExhausted).
func (c *Client) QueryLRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	return clientBatch(c, ctx, "/v1/query/lr:batch", pts, filter, lrOfWire)
}

// QueryLNRBatch is the rank-only twin of QueryLRBatch.
func (c *Client) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error) {
	return clientBatch(c, ctx, "/v1/query/lnr:batch", pts, filter, lnrOfWire)
}
