package lbs

// Cache persistence: a CachedOracle can snapshot its recorded answers
// to a stream and restore them on the next process start, so a warm
// restart keeps the hit rate a long-running gateway accumulated
// instead of re-spending budget on queries it already paid for.
//
// The snapshot is a point-in-time copy, not a live mirror: write it at
// graceful shutdown (after the last mutation-driven invalidation) and
// read it exactly once at startup, before serving. A snapshot whose
// configuration does not match the restoring cache — a different k,
// or keys quantized to a grid instead of exact points — is rejected
// whole: replaying answers recorded under a different key geometry
// would serve wrong results, and a cold cache is always safe.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// ErrCacheSnapshotMismatch is returned by ReadSnapshot when the
// snapshot was recorded under a different cache configuration (k, or
// a non-zero quantum). The caller should log it and serve cold.
var ErrCacheSnapshotMismatch = errors.New("lbs: cache snapshot configuration mismatch")

// cacheSnapshotVersion guards the gob stream layout; bump on any
// change to the header or entry shapes.
const cacheSnapshotVersion = 1

// cacheSnapshotHeader pins the key geometry the entries were recorded
// under. Selection and Quantum are always written empty — filtered
// answers are never cached, and keys are exact points, not grid cells
// — and kept so the layout stays at version 1; a snapshot carrying
// either is rejected.
type cacheSnapshotHeader struct {
	Version   int
	K         int
	Selection string
	Quantum   float64
	Entries   int
}

// cacheSnapshotEntry is the wire form of one recorded answer. QX/QY
// are the raw key words (Float64bits of the exact point), preserved
// exactly. Kind is always written 0 (an LR answer). Streams from
// before the cache kept one answer kind also hold kind-1 entries with
// an LNR field; gob skips that field, and ReadSnapshot drops those
// entries, since the LR entry at the same point answers LNR too.
type cacheSnapshotEntry struct {
	Kind   uint8
	QX, QY uint64
	LR     []LRRecord
}

// WriteSnapshot serializes every resident entry to w. Concurrent
// queries may proceed — each shard is locked only while copied — but
// the snapshot then represents no single instant; write it when the
// cache is quiescent (shutdown).
func (c *CachedOracle) WriteSnapshot(w io.Writer) error {
	var entries []cacheSnapshotEntry
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Back(); el != nil; el = el.Prev() {
			// Back-to-front: oldest first, so restoring preserves the
			// recency order within each shard.
			e := el.Value.(*cacheEntry)
			entries = append(entries, cacheSnapshotEntry{QX: e.key.qx, QY: e.key.qy, LR: e.recs})
		}
		sh.mu.Unlock()
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(cacheSnapshotHeader{
		Version: cacheSnapshotVersion, K: c.inner.K(), Entries: len(entries),
	}); err != nil {
		return fmt.Errorf("lbs: cache snapshot header: %w", err)
	}
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			return fmt.Errorf("lbs: cache snapshot entry: %w", err)
		}
	}
	return nil
}

// ReadSnapshot restores entries recorded by WriteSnapshot into the
// cache and returns how many were loaded. A header mismatch returns
// ErrCacheSnapshotMismatch and loads nothing; a decode error mid-
// stream keeps the entries already loaded (they are individually
// valid) and reports the error. Restored entries count toward
// CacheStats.Restored, not Misses. The stream is outside input: an
// LNR entry (kind 1, written before the cache kept one answer kind) is
// skipped and not counted, an entry of any other unknown kind ends the
// read with an error, and an empty answer — which gob encodes as an
// absent slice — is restored as the non-nil empty answer it was
// recorded as, never as the nil that marks an unanswered batch
// position. Each restored entry's reach is computed afresh from its
// answer, as a fetched one's is.
func (c *CachedOracle) ReadSnapshot(r io.Reader) (int, error) {
	dec := gob.NewDecoder(r)
	var h cacheSnapshotHeader
	if err := dec.Decode(&h); err != nil {
		return 0, fmt.Errorf("lbs: cache snapshot header: %w", err)
	}
	if h.Version != cacheSnapshotVersion {
		return 0, fmt.Errorf("%w: version %d (want %d)", ErrCacheSnapshotMismatch, h.Version, cacheSnapshotVersion)
	}
	if h.K != c.inner.K() || h.Selection != "" || h.Quantum != 0 {
		return 0, fmt.Errorf("%w: recorded (k=%d sel=%q quantum=%g), cache (k=%d, exact keys)",
			ErrCacheSnapshotMismatch, h.K, h.Selection, h.Quantum, c.inner.K())
	}
	loaded := 0
	for i := 0; i < h.Entries; i++ {
		var e cacheSnapshotEntry
		if err := dec.Decode(&e); err != nil {
			c.restored.Add(int64(loaded))
			return loaded, fmt.Errorf("lbs: cache snapshot entry %d: %w", i, err)
		}
		switch e.Kind {
		case 0: // an LR answer
		case 1: // an older stream's LNR answer: the LR entry answers it
			continue
		default:
			c.restored.Add(int64(loaded))
			return loaded, fmt.Errorf("lbs: cache snapshot entry %d: unknown kind %d", i, e.Kind)
		}
		recs := e.LR
		if recs == nil {
			recs = []LRRecord{}
		}
		key := cacheKey{k: h.K, qx: e.QX, qy: e.QY}
		c.evicted(c.shardFor(key).put(c.entry(key, recs)))
		loaded++
	}
	c.restored.Add(int64(loaded))
	return loaded, nil
}
