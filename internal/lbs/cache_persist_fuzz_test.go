package lbs

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"

	"repro/internal/geom"
)

// FuzzCacheSnapshot feeds arbitrary bytes to ReadSnapshot, which reads
// a file from disk at a warm restart: it must never panic, and every
// entry it restores must be of a known kind with a non-nil answer of
// that kind (nil marks an unanswered batch position, never a replay).
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
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCachedOracle(NewService(db, opts), CacheOptions{Capacity: 8})
		n, _ := c.ReadSnapshot(bytes.NewReader(data))
		if int64(n) != c.Stats().Restored {
			t.Fatalf("reported %d restored, stats say %d", n, c.Stats().Restored)
		}
		for _, sh := range c.shards {
			for el := sh.lru.Front(); el != nil; el = el.Next() {
				e := el.Value.(*cacheEntry)
				switch e.key.kind {
				case cacheKindLR:
					if e.lr == nil {
						t.Fatalf("restored LR entry %+v has a nil answer", e.key)
					}
				case cacheKindLNR:
					if e.lnr == nil {
						t.Fatalf("restored LNR entry %+v has a nil answer", e.key)
					}
				default:
					t.Fatalf("restored entry of unknown kind %d", e.key.kind)
				}
			}
		}
	})
}
