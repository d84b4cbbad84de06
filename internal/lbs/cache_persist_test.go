package lbs_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

func cacheFixture(t *testing.T, opts lbs.CacheOptions) (*lbs.CachedOracle, *lbs.Service, []geom.Point) {
	t.Helper()
	sc := workload.USASchools(300, 3)
	svc := lbs.NewService(sc.DB, lbs.Options{K: 5})
	c := lbs.NewCachedOracle(svc, opts)
	b := sc.DB.Bounds()
	var pts []geom.Point
	for i := 0; i < 20; i++ {
		pts = append(pts, geom.Pt(
			b.Min.X+(b.Max.X-b.Min.X)*float64(i)/19,
			b.Min.Y+(b.Max.Y-b.Min.Y)*float64(i)/19,
		))
	}
	return c, svc, pts
}

func TestCacheSnapshotRoundTrip(t *testing.T) {
	opts := lbs.CacheOptions{Capacity: 256}
	warm, _, pts := cacheFixture(t, opts)
	ctx := context.Background()

	// Query both views and record the answers: one LR entry per point
	// answers both.
	wantLR := make([][]lbs.LRRecord, len(pts))
	wantLNR := make([][]lbs.LNRRecord, len(pts))
	for i, p := range pts {
		var err error
		if wantLR[i], err = warm.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
		if wantLNR[i], err = warm.QueryLNR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := warm.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh cache over a fresh service: if the restored
	// entries really answer from the cache, the new service's query
	// meter stays untouched.
	cold, svc, _ := cacheFixture(t, opts)
	n, err := cold.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pts) {
		t.Fatalf("restored %d entries, want %d (one per point)", n, len(pts))
	}
	st := cold.Stats()
	if st.Restored != int64(n) || st.Entries != int64(n) {
		t.Fatalf("stats %+v, want %d restored resident entries", st, n)
	}
	for i, p := range pts {
		lr, err := cold.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(lr) != len(wantLR[i]) {
			t.Fatalf("pt %d: %d LR records, want %d", i, len(lr), len(wantLR[i]))
		}
		for j := range lr {
			if lr[j].ID != wantLR[i][j].ID || lr[j].Dist != wantLR[i][j].Dist {
				t.Fatalf("pt %d rec %d: restored (%v,%d) != recorded (%v,%d)",
					i, j, lr[j].Dist, lr[j].ID, wantLR[i][j].Dist, wantLR[i][j].ID)
			}
		}
		lnr, err := cold.QueryLNR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := range lnr {
			if lnr[j].ID != wantLNR[i][j].ID {
				t.Fatalf("pt %d rec %d: restored LNR ID %d != %d", i, j, lnr[j].ID, wantLNR[i][j].ID)
			}
		}
	}
	if got := svc.QueryCount(); got != 0 {
		t.Fatalf("restored cache forwarded %d queries; every answer should have replayed", got)
	}
	st = cold.Stats()
	if st.Hits != int64(2*len(pts)) || st.Misses != 0 {
		t.Fatalf("stats after replay %+v, want all hits", st)
	}
}

func TestCacheSnapshotTruncatedKeepsPrefix(t *testing.T) {
	opts := lbs.CacheOptions{Capacity: 256}
	warm, _, pts := cacheFixture(t, opts)
	ctx := context.Background()
	for _, p := range pts {
		if _, err := warm.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := warm.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cold, _, _ := cacheFixture(t, opts)
	n, err := cold.ReadSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()-10]))
	if err == nil {
		t.Fatal("truncated snapshot read reported success")
	}
	if int64(n) != cold.Stats().Entries {
		t.Fatalf("reported %d loaded but %d resident", n, cold.Stats().Entries)
	}
	if n >= len(pts) {
		t.Fatalf("loaded %d entries from a truncated stream of %d", n, len(pts))
	}
}

// TestCacheSnapshotRestoresEmptyAnswers: an empty answer (no tuple
// within MaxRadius) is a served answer, and a restored cache must
// replay it as one. Gob drops empty slices, so a restore that took the
// decoded field as is would hand back nil — the mark of an unanswered
// batch position — alongside a nil error.
func TestCacheSnapshotRestoresEmptyAnswers(t *testing.T) {
	sc := workload.USASchools(300, 3)
	opts := lbs.CacheOptions{Capacity: 64}
	b := sc.DB.Bounds()
	far := []geom.Point{geom.Pt(b.Max.X+1e6, b.Max.Y+1e6), geom.Pt(b.Min.X-1e6, b.Min.Y-1e6)}
	ctx := context.Background()
	warm := lbs.NewCachedOracle(lbs.NewService(sc.DB, lbs.Options{K: 5, MaxRadius: 1}), opts)
	for _, p := range far {
		lr, err := warm.QueryLR(ctx, p, nil)
		if err != nil || lr == nil || len(lr) != 0 {
			t.Fatalf("far LR query: %v, %v; want a non-nil empty answer", lr, err)
		}
		if _, err := warm.QueryLNR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := warm.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	svc := lbs.NewService(sc.DB, lbs.Options{K: 5, MaxRadius: 1})
	cold := lbs.NewCachedOracle(svc, opts)
	if n, err := cold.ReadSnapshot(&buf); err != nil || n != len(far) {
		t.Fatalf("restored %d entries, err %v; want %d", n, err, len(far))
	}
	lr, err := cold.QueryLRBatch(ctx, far, nil)
	if err != nil {
		t.Fatal(err)
	}
	lnr, err := cold.QueryLNRBatch(ctx, far, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range far {
		if lr[i] == nil || len(lr[i]) != 0 {
			t.Errorf("LR position %d: %v, want a non-nil empty answer", i, lr[i])
		}
		if lnr[i] == nil || len(lnr[i]) != 0 {
			t.Errorf("LNR position %d: %v, want a non-nil empty answer", i, lnr[i])
		}
	}
	if got := svc.QueryCount(); got != 0 {
		t.Fatalf("restored cache forwarded %d queries; every answer should have replayed", got)
	}
}
