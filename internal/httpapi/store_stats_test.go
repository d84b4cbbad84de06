package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/lbs"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestStatsStoreSection pins the /v1/stats store section through the
// full production stack (Instrumented -> Cached -> Service): the chain
// walk finds the storage engine wherever it sits, and a warm restart
// surfaces its recovery counters.
func TestStatsStoreSection(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	gen := func() *lbs.Database { return workload.USASchools(200, 3).DB }

	open := func(t *testing.T) (*store.Store, *lbs.CachedOracle, lbs.Querier) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		db, _, err := st.OpenOrCreateDatabase(gen)
		if err != nil {
			t.Fatal(err)
		}
		svc := lbs.NewService(db, lbs.Options{K: 5})
		cache := lbs.NewCachedOracle(svc, lbs.CacheOptions{Capacity: 64})
		return st, cache, st.Instrument(cache)
	}

	getStats := func(t *testing.T, backend lbs.Querier) statsResponse {
		t.Helper()
		srv := httptest.NewServer(NewServer(backend))
		defer srv.Close()
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

	// Cold start: the pack was written, nothing recovered.
	st, cache, backend := open(t)
	if _, err := backend.QueryLR(ctx, backend.Bounds().Center(), nil); err != nil {
		t.Fatal(err)
	}
	out := getStats(t, backend)
	if out.Store == nil {
		t.Fatal("stats response has no store section")
	}
	if out.Store.PagesWritten == 0 {
		t.Fatalf("store section %+v: cold ingest wrote no pages?", out.Store)
	}
	if out.Cache == nil || out.Cache.Misses != 1 {
		t.Fatalf("cache stats lost behind the instrumented wrapper: %+v", out.Cache)
	}
	if err := st.SaveCache(cache); err != nil {
		t.Fatal(err)
	}

	// Warm restart: pages read back, cache entries restored, and both
	// visible through the same chain walk.
	st2, cache2, backend2 := open(t)
	n, err := st2.LoadCache(cache2)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no cache entries restored on warm restart")
	}
	out = getStats(t, backend2)
	fi, err := os.Stat(st2.PackPath())
	if err != nil {
		t.Fatal(err)
	}
	// One scan reads every data page once: all pages but the header.
	if want := uint64(fi.Size()/store.DefaultPageSize - 1); out.Store == nil || out.Store.PagesRead != want {
		t.Fatalf("warm restart store section %+v: pages_read, want %d", out.Store, want)
	}
	if out.Store.CacheRestored != uint64(n) {
		t.Fatalf("store section cache_restored = %d, want %d", out.Store.CacheRestored, n)
	}
	if out.Cache == nil || out.Cache.Restored != int64(n) {
		t.Fatalf("cache section restored = %+v, want %d", out.Cache, n)
	}
}
