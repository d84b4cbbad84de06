package lbs

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
)

// legacySnapshotEntry is the entry layout written before the cache
// kept one answer kind: kind 1 entries carried an LNR answer.
type legacySnapshotEntry struct {
	Kind   uint8
	QX, QY uint64
	LR     []LRRecord
	LNR    []LNRRecord
}

// legacySnapshot encodes, in that older layout, an LR and an LNR
// entry for each of pts over svc, under a header recording quantum.
func legacySnapshot(tb testing.TB, svc *Service, pts []geom.Point, quantum float64) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(cacheSnapshotHeader{Version: 1, K: svc.K(), Quantum: quantum, Entries: 2 * len(pts)}); err != nil {
		tb.Fatal(err)
	}
	for _, p := range pts {
		lr := svc.answerLR(p, nil)
		qx, qy := math.Float64bits(p.X), math.Float64bits(p.Y)
		for _, e := range []legacySnapshotEntry{
			{Kind: 0, QX: qx, QY: qy, LR: lr},
			{Kind: 1, QX: qx, QY: qy, LNR: stripLocations(lr)},
		} {
			if err := enc.Encode(e); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// snapshotFixture is the data the compatibility snapshots were
// recorded over: three tuples, k = 2, and one answer per point.
func snapshotFixture() (*Database, Options, []geom.Point) {
	db := NewDatabase(geom.Rect{Max: geom.Pt(10, 10)}, []Tuple{
		{ID: 1, Loc: geom.Pt(1, 1)}, {ID: 2, Loc: geom.Pt(5, 5)}, {ID: 3, Loc: geom.Pt(9, 2)},
	})
	return db, Options{K: 2}, []geom.Point{geom.Pt(0, 0), geom.Pt(6, 6), geom.Pt(9, 9)}
}

// checkRestored requires c to hold exactly n restored entries, one per
// point of pts, and to answer both views there as a fresh service
// does without forwarding a query to svc.
func checkRestored(t *testing.T, c *CachedOracle, svc *Service, db *Database, opts Options, pts []geom.Point, n int) {
	t.Helper()
	if n != len(pts) {
		t.Fatalf("ReadSnapshot loaded %d entries, want %d", n, len(pts))
	}
	if st := c.Stats(); st.Restored != int64(n) || st.Entries != int64(n) {
		t.Fatalf("stats %+v, want %d restored resident entries", st, n)
	}
	ctx := context.Background()
	ref := NewService(db, opts)
	for _, p := range pts {
		want, _ := ref.QueryLR(ctx, p, nil)
		got, err := c.QueryLR(ctx, p, nil)
		if err != nil || len(got) != len(want) {
			t.Fatalf("LR at %v = %v, %v; want %v", p, got, err, want)
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
				t.Fatalf("LR at %v rank %d = (%d, %v), want (%d, %v)", p, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
			}
		}
		lnr, err := c.QueryLNR(ctx, p, nil)
		if err != nil || len(lnr) != len(want) {
			t.Fatalf("LNR at %v = %v, %v; want %d records", p, lnr, err, len(want))
		}
		for i := range lnr {
			if lnr[i].ID != want[i].ID {
				t.Fatalf("LNR at %v rank %d = ID %d, want %d", p, i, lnr[i].ID, want[i].ID)
			}
		}
	}
	if q := svc.QueryCount(); q != 0 {
		t.Fatalf("restored cache forwarded %d queries; every answer should have replayed", q)
	}
}

// TestCacheSnapshotLegacyLNREntries: a version-1 snapshot written when
// LR and LNR answers were cached apart loads without error. Its LR
// entries are restored and answer both views; its LNR entries are
// dropped and counted neither as loaded nor as restored.
func TestCacheSnapshotLegacyLNREntries(t *testing.T) {
	db, opts, pts := snapshotFixture()
	data := legacySnapshot(t, NewService(db, opts), pts, 0)

	svc := NewService(db, opts)
	c := NewCachedOracle(svc, CacheOptions{Capacity: 4 * cacheShards})
	n, err := c.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	checkRestored(t, c, svc, db, opts, pts, n)
}

// TestCacheSnapshotExactKeyV1Loads: a version-1 snapshot in the
// exact-key layout (quantum 0, one LR entry per point), as the cache
// wrote it before its quantized keys were removed, restores every
// entry. testdata/cache_v1_exact.snapshot holds such a stream, written
// over snapshotFixture.
func TestCacheSnapshotExactKeyV1Loads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "cache_v1_exact.snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	db, opts, pts := snapshotFixture()
	svc := NewService(db, opts)
	c := NewCachedOracle(svc, CacheOptions{Capacity: 4 * cacheShards})
	n, err := c.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	checkRestored(t, c, svc, db, opts, pts, n)
}

// TestCacheSnapshotMismatchRejected: a snapshot recorded under another
// key geometry — another k, or keys quantized to a grid — is rejected
// whole, leaving the cache cold (and correct).
func TestCacheSnapshotMismatchRejected(t *testing.T) {
	db, opts, pts := snapshotFixture()
	other := NewCachedOracle(NewService(db, Options{K: opts.K + 1}), CacheOptions{})
	ctx := context.Background()
	for _, p := range pts {
		if _, err := other.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	var otherK bytes.Buffer
	if err := other.WriteSnapshot(&otherK); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"k":       otherK.Bytes(),
		"quantum": legacySnapshot(t, NewService(db, opts), pts, 0.5),
	} {
		c := NewCachedOracle(NewService(db, opts), CacheOptions{})
		n, err := c.ReadSnapshot(bytes.NewReader(data))
		if !errors.Is(err, ErrCacheSnapshotMismatch) {
			t.Fatalf("%s: err = %v, want ErrCacheSnapshotMismatch", name, err)
		}
		if st := c.Stats(); n != 0 || st.Entries != 0 || st.Restored != 0 {
			t.Fatalf("%s: mismatch loaded %d entries (%+v), want none", name, n, st)
		}
	}
}

// FuzzCacheSnapshot feeds arbitrary bytes to ReadSnapshot, which reads
// a file from disk at a warm restart: it must never panic, and every
// entry it restores must hold a non-nil answer (nil marks an
// unanswered batch position, never a replay).
func FuzzCacheSnapshot(f *testing.F) {
	db := NewDatabase(geom.Rect{Max: geom.Pt(1, 1)}, []Tuple{{ID: 1, Loc: geom.Pt(0, 0)}, {ID: 2, Loc: geom.Pt(1, 1)}})
	opts := Options{K: 2, MaxRadius: 0.5}
	seed := NewCachedOracle(NewService(db, opts), CacheOptions{Capacity: 8})
	ctx := context.Background()
	for _, p := range []geom.Point{geom.Pt(0, 0), geom.Pt(9, 9)} {
		if _, err := seed.QueryLR(ctx, p, nil); err != nil {
			f.Fatal(err)
		}
		if _, err := seed.QueryLNR(ctx, p, nil); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := seed.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var odd bytes.Buffer
	enc := gob.NewEncoder(&odd)
	_ = enc.Encode(cacheSnapshotHeader{Version: cacheSnapshotVersion, K: 2, Entries: 2})
	_ = enc.Encode(cacheSnapshotEntry{Kind: 7, LR: []LRRecord{{ID: 1}}})
	f.Add(odd.Bytes())
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(9, 9)}
	f.Add(legacySnapshot(f, NewService(db, opts), pts, 0))
	f.Add([]byte{})
	f.Add(legacySnapshot(f, NewService(db, opts), pts, 0.5)) // refused: quantized keys

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCachedOracle(NewService(db, opts), CacheOptions{Capacity: 8})
		n, _ := c.ReadSnapshot(bytes.NewReader(data))
		if int64(n) != c.Stats().Restored {
			t.Fatalf("reported %d restored, stats say %d", n, c.Stats().Restored)
		}
		for _, sh := range c.shards {
			for el := sh.lru.Front(); el != nil; el = el.Next() {
				if e := el.Value.(*cacheEntry); e.recs == nil {
					t.Fatalf("restored entry %+v has a nil answer", e.key)
				}
			}
		}
	})
}
