package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// benchService is a lean service for throughput runs: plain located
// tuples without attribute maps, so the wire cost per record models a
// minimal LBS answer and the measurement isolates per-request versus
// per-query overhead.
func benchService(n, k int) *lbs.Service {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	pts := workload.ClusterMix(workload.ClusterMixConfig{
		Bounds: bounds, N: n, Clusters: 6, UniformFrac: 0.3, Seed: 42,
	})
	tuples := make([]lbs.Tuple, n)
	for i, p := range pts {
		tuples[i] = lbs.Tuple{ID: int64(i + 1), Loc: p, Category: "poi"}
	}
	return lbs.NewService(lbs.NewDatabase(bounds, tuples), lbs.Options{K: k})
}

// BenchmarkServeThroughput measures server throughput (answered
// queries per second) under 8 concurrent clients, comparing the
// per-point GET path (batch=1) against the batched POST path. The
// per-request overhead — connection handling, JSON framing, budget
// synchronization — is paid once per batch instead of
// once per query, which is the whole argument for the batch endpoint
// under heavy traffic (run `make bench-throughput`).
func BenchmarkServeThroughput(b *testing.B) {
	const clients = 8
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			svc := benchService(2000, 5)
			ts := httptest.NewServer(NewServer(svc))
			defer ts.Close()

			// One client per worker, sharing the server.
			cs := make([]*Client, clients)
			for i := range cs {
				c, err := NewClient(context.Background(), ts.URL, Selection{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				cs[i] = c
			}
			bounds := svc.Bounds()
			perClient := b.N/clients + 1

			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					c := cs[w]
					issued := 0
					for issued < perClient {
						m := batch
						if rem := perClient - issued; rem < m {
							m = rem
						}
						pts := make([]geom.Point, m)
						for j := range pts {
							pts[j] = geom.Pt(
								bounds.Min.X+rng.Float64()*(bounds.Max.X-bounds.Min.X),
								bounds.Min.Y+rng.Float64()*(bounds.Max.Y-bounds.Min.Y),
							)
						}
						var err error
						if m == 1 {
							_, err = c.QueryLR(context.Background(), pts[0], nil)
						} else {
							_, err = c.QueryLRBatch(context.Background(), pts, nil)
						}
						if err != nil {
							b.Error(err)
							return
						}
						issued += m
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(svc.QueryCount())/elapsed.Seconds(), "queries/s")
			b.ReportMetric(0, "ns/op") // queries/s is the meaningful metric here
		})
	}
}

// BenchmarkServeAnswer measures one query answer through the handler,
// JSON encoding included, with the transport cut out
// (httptest.ResponseRecorder): GET /v1/lr on schools records (10 per
// answer, each with a one-key Attrs) and a 4-point POST
// /v1/query/lnr:batch on weibo records (each with a one-key Tags).
func BenchmarkServeAnswer(b *testing.B) {
	schools := workload.USASchools(5000, 1)
	weibo := workload.WeiboChina(5000, 1)
	sb, wb := schools.Bounds, weibo.Bounds
	lrPath := fmt.Sprintf("/v1/lr?x=%g&y=%g", (sb.Min.X+sb.Max.X)/2, (sb.Min.Y+sb.Max.Y)/2)
	batchBody := []byte(`{"points":[`)
	for i := 0; i < 4; i++ {
		if i > 0 {
			batchBody = append(batchBody, ',')
		}
		f := float64(i+1) / 5
		batchBody = fmt.Appendf(batchBody, `{"x":%g,"y":%g}`, wb.Min.X+f*(wb.Max.X-wb.Min.X), wb.Min.Y+f*(wb.Max.Y-wb.Min.Y))
	}
	batchBody = append(batchBody, "]}"...)

	// One request per case, its body rewound each time, so the loop
	// measures the handler rather than request construction.
	body := bytes.NewReader(nil)
	for _, c := range []struct {
		name string
		svc  *lbs.Service
		req  *http.Request
		body []byte
	}{
		{"lr-schools", lbs.NewService(schools.DB, lbs.Options{K: 10}),
			httptest.NewRequest(http.MethodGet, lrPath, nil), nil},
		{"lnr-batch4-weibo", lbs.NewService(weibo.DB, lbs.Options{K: 10}),
			httptest.NewRequest(http.MethodPost, "/v1/query/lnr:batch", body), batchBody},
	} {
		b.Run(c.name, func(b *testing.B) {
			srv := NewServer(c.svc)
			b.ReportAllocs()
			for b.Loop() {
				body.Reset(c.body)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, c.req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkParseBatch decodes a 12-point batch body as the client
// writes it (json.Marshal of batchRequest), from a request built once
// with its body rewound each time.
func BenchmarkParseBatch(b *testing.B) {
	req := batchRequest{Category: "school"}
	for i := 0; i < 12; i++ {
		req.Points = append(req.Points, wirePoint{X: -97.7 + float64(i)/7, Y: 30.25 - float64(i)/3})
	}
	raw, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	body := bytes.NewReader(nil)
	r := httptest.NewRequest(http.MethodPost, "/v1/query/lnr:batch", body)
	w := httptest.NewRecorder()
	b.ReportAllocs()
	for b.Loop() {
		body.Reset(raw)
		if _, _, err := parseBatch(w, r); err != nil {
			b.Fatal(err)
		}
	}
}
