package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// degradedFront builds an HTTP server over a 2-shard federation with
// one member killed and its breaker already open, so every query owned
// by the corpse's region answers degraded. Returns the server, a
// client, and the injectors.
func degradedFront(t *testing.T) (*httptest.Server, *Client, *shard.Router, []*faults.Injector) {
	t.Helper()
	db := workload.USASchools(120, 23).DB
	res := shard.Resilience{BreakerThreshold: 1, BreakerCooldown: time.Hour}
	inj := make([]*faults.Injector, 2)
	router, err := shard.FromPartsWrapped(shard.Partition(db, 2), lbs.Options{K: 20}, res,
		func(i int, q lbs.Querier) lbs.Querier {
			inj[i] = faults.New(q, faults.Spec{Seed: int64(i)})
			return inj[i]
		})
	if err != nil {
		t.Fatal(err)
	}
	inj[1].Kill()
	// Trip the breaker with the crisp owner failure, so subsequent
	// queries degrade instead of failing.
	pokePt := router.Stats().Shards[1].Region.Center()
	_, _ = router.QueryLR(context.Background(), pokePt, nil)

	srv := httptest.NewServer(NewServer(router))
	t.Cleanup(srv.Close)
	c, err := NewClient(context.Background(), srv.URL, Selection{}, srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return srv, c, router, inj
}

// TestPartialAnswerHeadersRoundTrip pins the wire contract for
// degraded answers: the server responds 200 with the partial counters
// in headers, and the typed client reconstructs the same
// *lbs.PartialError alongside the usable records — on the single and
// batch paths.
func TestPartialAnswerHeadersRoundTrip(t *testing.T) {
	srv, c, router, _ := degradedFront(t)
	ctx := context.Background()
	q := router.Stats().Shards[1].Region.Center()

	// Wire shape: 200 + annotation headers.
	resp, err := http.Get(srv.URL + "/v1/lr?x=" +
		jsonNum(q.X) + "&y=" + jsonNum(q.Y))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded answer status %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get(headerPartialDegraded) != "1" {
		t.Fatalf("missing %s header: %v", headerPartialDegraded, resp.Header)
	}

	// Typed client: records plus the reconstructed annotation.
	recs, err := c.QueryLR(ctx, q, nil)
	pe, ok := lbs.AsPartial(err)
	if !ok {
		t.Fatalf("client error %v, want partial annotation", err)
	}
	if len(recs) == 0 || pe.Degraded != 1 || pe.Missing == 0 {
		t.Fatalf("client round-trip: %d recs, %+v", len(recs), pe)
	}

	// Batch path: per-chunk annotations accumulate.
	pts := []geom.Point{q, q, router.Bounds().Min}
	out, err := c.QueryLRBatch(ctx, pts, nil)
	pe, ok = lbs.AsPartial(err)
	if !ok {
		t.Fatalf("batch error %v, want partial annotation", err)
	}
	if pe.Degraded < 2 {
		t.Fatalf("batch annotation %+v, want ≥ 2 degraded", pe)
	}
	for i, recs := range out {
		if recs == nil {
			t.Fatalf("batch position %d dropped; degraded answers must still arrive", i)
		}
	}
}

// TestStatsReportsHealthAndFaults pins the /v1/stats health section:
// breaker state per shard (open, then half-open once the cooldown
// elapses), partial-answer and resilience counters, and the injected
// fault counters chain-walked from the member injectors.
func TestStatsReportsHealthAndFaults(t *testing.T) {
	db := workload.USASchools(120, 29).DB
	res := shard.Resilience{BreakerThreshold: 1, BreakerCooldown: 100 * time.Millisecond}
	inj := make([]*faults.Injector, 2)
	router, err := shard.FromPartsWrapped(shard.Partition(db, 2), lbs.Options{K: 20}, res,
		func(i int, q lbs.Querier) lbs.Querier {
			inj[i] = faults.New(q, faults.Spec{Seed: int64(i)})
			return inj[i]
		})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(router))
	defer srv.Close()

	getStats := func() statsResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out statsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Kill member 1, fail its owned query (trips the breaker), then
	// answer one degraded query through the HTTP front.
	inj[1].Kill()
	deadPt := router.Stats().Shards[1].Region.Center()
	_, _ = router.QueryLR(context.Background(), deadPt, nil)
	resp, err := http.Get(srv.URL + "/v1/lr?x=" + jsonNum(deadPt.X) + "&y=" + jsonNum(deadPt.Y))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	st := getStats()
	if st.Federation == nil || len(st.Federation.Shards) != 2 {
		t.Fatalf("federation stats: %+v", st.Federation)
	}
	if got := st.Federation.Shards[1].State; got != shard.BreakerOpen {
		t.Fatalf("shard 1 state %q, want open", got)
	}
	if st.Federation.Partial == 0 {
		t.Fatalf("federation partial counter empty: %+v", st.Federation)
	}
	if st.PartialAnswers == 0 {
		t.Fatal("server partial_answers counter empty")
	}
	if st.Faults == nil || st.Faults.DownCalls == 0 {
		t.Fatalf("fault injector stats not chain-walked: %+v", st.Faults)
	}

	// Cooldown elapses with no traffic: the health section shows
	// half-open — the observable recovery signal.
	time.Sleep(res.BreakerCooldown + 20*time.Millisecond)
	if got := getStats().Federation.Shards[1].State; got != shard.BreakerHalfOpen {
		t.Fatalf("after cooldown: state %q, want half-open", got)
	}

	// Revive + one successful probe closes it again.
	inj[1].Revive()
	if _, err := router.QueryLR(context.Background(), router.Bounds().Center(), nil); err != nil {
		t.Fatal(err)
	}
	if got := getStats().Federation.Shards[1].State; got != shard.BreakerClosed {
		t.Fatalf("after recovery: state %q, want closed", got)
	}
}

// jsonNum formats a float for a query string.
func jsonNum(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}
