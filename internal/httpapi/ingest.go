package httpapi

// Streaming ingest: mutations over the wire for live backends.
//
//	POST /v1/tuples:stream    NDJSON ops in → NDJSON acks out
//
// The request body is a stream of mutation ops, one JSON object per
// line:
//
//	{"op":"insert","id":9001,"x":12.5,"y":-3.25,"name":"...","category":"...","attrs":{...},"tags":{...}}
//	{"op":"delete","id":9001}
//	{"op":"move","id":17,"x":13.0,"y":-2.75}
//
// The response is one ack per op, in order, flushed as each op
// applies:
//
//	{"seq":0,"ok":true,"epoch":412}
//	{"seq":1,"ok":false,"epoch":412,"error":"live: unknown tuple ID"}
//
// seq is the 0-based position of the op in the request stream; epoch
// is the backend's applied-mutation epoch after the op (unchanged when
// the op was rejected, by the backend or before it reached it). A
// rejected op does not abort the stream — later ops keep applying —
// but a malformed line does: the server acks it with ok=false and a
// decode error, then closes the stream (it cannot trust line framing
// past a syntax error). Ops apply one at a time, so an ack's epoch is
// the exact epoch at which that op's effect became visible to queries.
//
// A server whose backend has no Mutator (an immutable database)
// refuses the stream with 501 Not Implemented.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
)

// wireOp is one NDJSON mutation line.
type wireOp struct {
	Op       string             `json:"op"`
	ID       int64              `json:"id,omitempty"`
	X        *float64           `json:"x,omitempty"`
	Y        *float64           `json:"y,omitempty"`
	Name     string             `json:"name,omitempty"`
	Category string             `json:"category,omitempty"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Tags     map[string]string  `json:"tags,omitempty"`
}

// wireAck is one NDJSON ack line, index-aligned with the op stream.
type wireAck struct {
	Seq   int    `json:"seq"`
	OK    bool   `json:"ok"`
	Epoch uint64 `json:"epoch"`
	Error string `json:"error,omitempty"`
}

// toOp validates and converts a wire op to a live.Op.
func (w wireOp) toOp() (live.Op, error) {
	switch w.Op {
	case "insert":
		if w.X == nil || w.Y == nil {
			return live.Op{}, fmt.Errorf("insert needs x and y")
		}
		return live.Op{Kind: live.OpInsert, Tuple: lbs.Tuple{
			ID: w.ID, Loc: geom.Pt(*w.X, *w.Y),
			Name: w.Name, Category: w.Category,
			Attrs: w.Attrs, Tags: w.Tags,
		}}, nil
	case "delete":
		return live.Op{Kind: live.OpDelete, ID: w.ID}, nil
	case "move":
		if w.X == nil || w.Y == nil {
			return live.Op{}, fmt.Errorf("move needs x and y")
		}
		return live.Op{Kind: live.OpMove, ID: w.ID, Loc: geom.Pt(*w.X, *w.Y)}, nil
	}
	return live.Op{}, fmt.Errorf("unknown op %q (want insert, delete or move)", w.Op)
}

// wireOpOf is the client-side inverse of toOp.
func wireOpOf(op live.Op) (wireOp, error) {
	switch op.Kind {
	case live.OpInsert:
		x, y := op.Tuple.Loc.X, op.Tuple.Loc.Y
		return wireOp{
			Op: "insert", ID: op.Tuple.ID, X: &x, Y: &y,
			Name: op.Tuple.Name, Category: op.Tuple.Category,
			Attrs: op.Tuple.Attrs, Tags: op.Tuple.Tags,
		}, nil
	case live.OpDelete:
		return wireOp{Op: "delete", ID: op.ID}, nil
	case live.OpMove:
		x, y := op.Loc.X, op.Loc.Y
		return wireOp{Op: "move", ID: op.ID, X: &x, Y: &y}, nil
	}
	return wireOp{}, fmt.Errorf("httpapi: unknown op kind %v", op.Kind)
}

// handleTupleStream applies an NDJSON mutation stream to the server's
// Mutator, acking each op as it lands (see the package comment above
// for the wire shapes).
func (s *Server) handleTupleStream(w http.ResponseWriter, r *http.Request) {
	if s.mutator == nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{
			Error: "backend is immutable: no mutator configured (run the server with a live database)",
		})
		return
	}
	// Acks flow while ops are still arriving: on HTTP/1.1 the server
	// closes the request body at the first response write unless
	// full-duplex is enabled. Where unsupported (HTTP/2 has it
	// natively) the error is ignored and large streams may see the
	// body cut off after the first ack.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ack := func(a wireAck) bool {
		if err := enc.Encode(a); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	// epoch is the last epoch the stream saw: what an op rejected
	// before it reaches the mutator (a malformed line, an unknown op, a
	// missing coordinate) acks, since it leaves the epoch unchanged.
	var epoch uint64
	if e, ok := s.mutator.(interface{ Epoch() uint64 }); ok {
		epoch = e.Epoch()
	}
	dec := json.NewDecoder(r.Body)
	for seq := 0; ; seq++ {
		var wop wireOp
		if err := dec.Decode(&wop); err != nil {
			if !errors.Is(err, io.EOF) {
				ack(wireAck{Seq: seq, OK: false, Epoch: epoch, Error: fmt.Sprintf("decode: %v", err)})
			}
			return
		}
		op, err := wop.toOp()
		if err != nil {
			if !ack(wireAck{Seq: seq, OK: false, Epoch: epoch, Error: err.Error()}) {
				return
			}
			continue
		}
		res := s.mutator.Apply(r.Context(), []live.Op{op})[0]
		epoch = res.Epoch
		a := wireAck{Seq: seq, OK: res.Err == nil, Epoch: res.Epoch}
		if res.Err != nil {
			a.Error = res.Err.Error()
		}
		if !ack(a) {
			return
		}
	}
}

// ErrShortAckStream is returned by StreamTuples when the server closed
// the ack stream before acking every op — the unacked tail's fate is
// unknown (the ops may or may not have applied).
var ErrShortAckStream = errors.New("httpapi: ack stream ended before every op was acked")

// StreamTuples sends ops to the server's mutation stream and returns
// per-op results index-aligned with ops (a rejected op carries its
// server-side error; the stream continues past it). Unlike queries,
// the POST is never retried: mutations are not idempotent, and a
// replayed insert or move could double-apply. On a transport error or
// short ack stream the returned results cover the acked prefix and the
// error reports the rest unknown.
func (c *Client) StreamTuples(ctx context.Context, ops []live.Op) ([]live.Result, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, op := range ops {
		wop, err := wireOpOf(op)
		if err != nil {
			return nil, fmt.Errorf("httpapi: op %d: %w", i, err)
		}
		if err := enc.Encode(wop); err != nil {
			return nil, fmt.Errorf("httpapi: op %d encode: %w", i, err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/tuples:stream", &buf)
	if err != nil {
		return nil, fmt.Errorf("httpapi: stream request: %w", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("httpapi: stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e := decodeError(resp)
		return nil, fmt.Errorf("httpapi: stream status %d: %s", resp.StatusCode, e.Error)
	}
	results := make([]live.Result, 0, len(ops))
	dec := json.NewDecoder(resp.Body)
	for {
		var a wireAck
		if err := dec.Decode(&a); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return results, fmt.Errorf("httpapi: ack decode after %d acks: %w", len(results), err)
		}
		if a.Seq != len(results) {
			return results, fmt.Errorf("httpapi: ack out of order: got seq %d, want %d", a.Seq, len(results))
		}
		r := live.Result{Epoch: a.Epoch}
		if !a.OK {
			r.Err = errors.New(a.Error)
		}
		results = append(results, r)
	}
	if len(results) != len(ops) {
		return results, fmt.Errorf("%w: %d of %d acked", ErrShortAckStream, len(results), len(ops))
	}
	return results, nil
}
