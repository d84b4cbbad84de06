package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
)

// testLiveBase is a small fixed population: 25 tuples on a 5×5 grid
// over a 100×100 square.
func testLiveBase() *lbs.Database {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	tuples := make([]lbs.Tuple, 0, 25)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			tuples = append(tuples, lbs.Tuple{
				ID:  int64(len(tuples) + 1),
				Loc: geom.Pt(10+float64(i)*20, 10+float64(j)*20),
				Attrs: map[string]float64{
					"v": float64(i + j),
				},
			})
		}
	}
	return lbs.NewDatabase(bounds, tuples)
}

// testLiveBacked builds a live database over testLiveBase and a server
// exposing it (queries through d, mutations through the Mutator seam).
func testLiveBacked(t *testing.T, lopts live.Options) (*live.Database, *httptest.Server) {
	t.Helper()
	d, err := live.New(testLiveBase(), lbs.Options{K: 3}, lopts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWith(d, ServerOptions{Mutator: d}))
	t.Cleanup(ts.Close)
	return d, ts
}

func TestTupleStreamRoundTrip(t *testing.T) {
	d, ts := testLiveBacked(t, live.Options{})
	ctx := context.Background()
	c, err := NewClient(ctx, ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	ops := []live.Op{
		{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: 9001, Loc: geom.Pt(55, 55), Name: "new"}},
		{Kind: live.OpDelete, ID: 99999}, // unknown: rejected, stream continues
		{Kind: live.OpMove, ID: 1, Loc: geom.Pt(2, 2)},
		{Kind: live.OpDelete, ID: 2},
	}
	results, err := c.StreamTuples(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ops) {
		t.Fatalf("got %d results for %d ops", len(results), len(ops))
	}
	wantEpochs := []uint64{1, 1, 2, 3}
	for i, r := range results {
		if r.Epoch != wantEpochs[i] {
			t.Errorf("op %d: epoch %d, want %d", i, r.Epoch, wantEpochs[i])
		}
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "unknown") {
		t.Errorf("rejected op error: %v", results[1].Err)
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil {
			t.Errorf("op %d unexpectedly rejected: %v", i, results[i].Err)
		}
	}

	// The mutations are visible to queries through the same server.
	if d.Epoch() != 3 {
		t.Fatalf("backend epoch %d, want 3", d.Epoch())
	}
	recs, err := c.QueryLR(ctx, geom.Pt(55, 55), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].ID != 9001 {
		t.Fatalf("inserted tuple not nearest after stream: %+v", recs)
	}
	if _, _, ok := d.Lookup(2); ok {
		t.Fatal("deleted tuple still visible")
	}
	if _, loc, ok := d.Lookup(1); !ok || loc != geom.Pt(2, 2) {
		t.Fatalf("moved tuple: ok=%v loc=%v", ok, loc)
	}
}

func TestTupleStreamImmutableBackend(t *testing.T) {
	svc := testService(20, 3, 0, 9)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	ctx := context.Background()
	c, err := NewClient(ctx, ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.StreamTuples(ctx, []live.Op{{Kind: live.OpDelete, ID: 1}})
	if err == nil || !strings.Contains(err.Error(), "501") {
		t.Fatalf("want 501 against immutable backend, got %v", err)
	}
}

// TestTupleStreamMalformed pins the framing contract: a malformed line
// is acked with ok=false and closes the stream; the well-formed ops
// before it applied.
func TestTupleStreamMalformed(t *testing.T) {
	d, ts := testLiveBacked(t, live.Options{})
	body := `{"op":"delete","id":3}` + "\n" + `not json` + "\n" + `{"op":"delete","id":4}` + "\n"
	resp, err := http.Post(ts.URL+"/v1/tuples:stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var acks []wireAck
	dec := json.NewDecoder(resp.Body)
	for {
		var a wireAck
		if err := dec.Decode(&a); err != nil {
			break
		}
		acks = append(acks, a)
	}
	if len(acks) != 2 {
		t.Fatalf("got %d acks, want 2 (applied op + decode error): %+v", len(acks), acks)
	}
	if !acks[0].OK || acks[0].Epoch != 1 {
		t.Errorf("first ack: %+v", acks[0])
	}
	if acks[1].OK || !strings.Contains(acks[1].Error, "decode") {
		t.Errorf("second ack: %+v", acks[1])
	}
	if _, _, ok := d.Lookup(3); ok {
		t.Error("op before the malformed line did not apply")
	}
	if _, _, ok := d.Lookup(4); !ok {
		t.Error("op after the malformed line applied; stream should have closed")
	}
}

// TestTupleStreamUnknownKind pins per-op validation: an unknown op
// string is rejected in place without ending the stream.
func TestTupleStreamUnknownKind(t *testing.T) {
	d, ts := testLiveBacked(t, live.Options{})
	body := `{"op":"upsert","id":3}` + "\n" + `{"op":"delete","id":3}` + "\n"
	resp, err := http.Post(ts.URL+"/v1/tuples:stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acks []wireAck
	dec := json.NewDecoder(resp.Body)
	for {
		var a wireAck
		if err := dec.Decode(&a); err != nil {
			break
		}
		acks = append(acks, a)
	}
	if len(acks) != 2 {
		t.Fatalf("got %d acks, want 2: %+v", len(acks), acks)
	}
	if acks[0].OK || !strings.Contains(acks[0].Error, "unknown op") {
		t.Errorf("first ack: %+v", acks[0])
	}
	if !acks[1].OK {
		t.Errorf("second ack: %+v", acks[1])
	}
	if _, _, ok := d.Lookup(3); ok {
		t.Error("delete after rejected op did not apply")
	}
}

// TestStatsLive pins the /v1/stats additions: the live section (epoch
// and mutation counters) via the Stats() live.Stats probe, and the
// cache invalidation counter after a mutation flushes dirtied entries.
// A live cluster reports the same live section and, through its
// router, the federation section.
func TestStatsLive(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var cache *lbs.CachedOracle
			lopts := live.Options{
				OnInvalidate: func(r geom.Rect) {
					if cache != nil {
						cache.Invalidate(r)
					}
				},
			}
			var backend interface {
				lbs.Querier
				live.Mutator
			}
			if shards == 1 {
				backend, _ = testLiveBacked(t, lopts)
			} else {
				c, err := live.NewCluster(testLiveBase(), lbs.Options{K: 3}, shards, lopts)
				if err != nil {
					t.Fatal(err)
				}
				backend = c
			}
			cache = lbs.NewCachedOracle(backend, lbs.CacheOptions{})
			ts := httptest.NewServer(NewServerWith(cache, ServerOptions{Mutator: backend}))
			defer ts.Close()
			ctx := context.Background()
			c, err := NewClient(ctx, ts.URL, Selection{}, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Populate the cache, mutate (no MaxRadius and no
			// InvalidationRadius → conservative full flush), then read
			// stats.
			if _, err := c.QueryLR(ctx, geom.Pt(10, 10), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := c.QueryLR(ctx, geom.Pt(90, 90), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := c.StreamTuples(ctx, []live.Op{{Kind: live.OpMove, ID: 1, Loc: geom.Pt(1, 1)}}); err != nil {
				t.Fatal(err)
			}

			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var st statsResponse
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if st.Live == nil {
				t.Fatal("stats missing live section")
			}
			if st.Live.Epoch != 1 || st.Live.Moves != 1 {
				t.Errorf("live stats: %+v", st.Live)
			}
			if st.Live.BaseLen != 25 {
				t.Errorf("live base len: %d", st.Live.BaseLen)
			}
			if st.Cache == nil {
				t.Fatal("stats missing cache section")
			}
			if st.Cache.Invalidations != 2 {
				t.Errorf("cache invalidations: %d, want 2 (both cached answers flushed)", st.Cache.Invalidations)
			}
			if fed := st.Federation != nil; fed != (shards > 1) {
				t.Errorf("federation section present=%v with %d shards", fed, shards)
			} else if fed && len(st.Federation.Shards) != shards {
				t.Errorf("federation reports %d shards, want %d", len(st.Federation.Shards), shards)
			}
		})
	}
}

// opaque hides everything but the Querier interface: no lbs.Wrapper,
// no live Stats — the stats walk cannot see through it.
type opaque struct{ lbs.Querier }

// TestStatsLiveViaMutatorOnly pins the fallback probe: when the query
// chain does not reach the live backend (an opaque wrapper), the
// configured Mutator still reports live stats.
func TestStatsLiveViaMutatorOnly(t *testing.T) {
	d, inner := testLiveBacked(t, live.Options{})
	inner.Close()
	ts := httptest.NewServer(NewServerWith(opaque{d}, ServerOptions{Mutator: d}))
	defer ts.Close()
	ctx := context.Background()
	c, err := NewClient(ctx, ts.URL, Selection{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamTuples(ctx, []live.Op{{Kind: live.OpDelete, ID: 5}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Live == nil || st.Live.Epoch != 1 || st.Live.Deletes != 1 {
		t.Fatalf("live stats: %+v", st.Live)
	}
	if st.Live.Tombstones != 1 || st.Live.BaseLen != 25 {
		t.Errorf("live overlay stats: %+v", st.Live)
	}
	_ = d
}
