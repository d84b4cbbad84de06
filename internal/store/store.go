package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/lbs"
	"repro/internal/live"
)

// Metrics are the storage engine's shared counters; every component
// of a Store (pack writer and reader, WAL, recovery, job store)
// feeds the same instance, and Stats() snapshots it for /v1/stats.
type Metrics struct {
	PagesRead    atomic.Uint64
	PagesWritten atomic.Uint64

	WALBytes    atomic.Uint64
	WALFrames   atomic.Uint64
	Checkpoints atomic.Uint64

	RecoveredFrames atomic.Uint64 // WAL frames replayed at open
	RecoveredOps    atomic.Uint64 // mutations those frames carried
	RecoveredJobs   atomic.Uint64 // finished jobs reloaded
	ResumedJobs     atomic.Uint64 // interrupted jobs re-running
	UnresumableJobs atomic.Uint64 // recovered jobs settled as failed
	CacheRestored   atomic.Uint64 // cache entries restored at open
}

// Stats is a point-in-time snapshot of Metrics, JSON-shaped for the
// /v1/stats store section.
type Stats struct {
	PagesRead    uint64 `json:"pages_read"`
	PagesWritten uint64 `json:"pages_written"`
	// PoolHitRate is always 0: the store has no buffer pool, a pack is
	// read once. The key stays because report readers still read it.
	PoolHitRate float64 `json:"pool_hit_rate"`

	WALBytes    uint64 `json:"wal_bytes"`
	WALFrames   uint64 `json:"wal_frames"`
	Checkpoints uint64 `json:"checkpoints"`

	RecoveredFrames uint64 `json:"recovered_frames"`
	RecoveredOps    uint64 `json:"recovered_ops"`
	RecoveredJobs   uint64 `json:"recovered_jobs"`
	ResumedJobs     uint64 `json:"resumed_jobs"`
	UnresumableJobs uint64 `json:"unresumable_jobs"`
	CacheRestored   uint64 `json:"cache_restored"`
}

// Snapshot reads every counter once.
func (m *Metrics) Snapshot() Stats {
	return Stats{
		PagesRead:       m.PagesRead.Load(),
		PagesWritten:    m.PagesWritten.Load(),
		WALBytes:        m.WALBytes.Load(),
		WALFrames:       m.WALFrames.Load(),
		Checkpoints:     m.Checkpoints.Load(),
		RecoveredFrames: m.RecoveredFrames.Load(),
		RecoveredOps:    m.RecoveredOps.Load(),
		RecoveredJobs:   m.RecoveredJobs.Load(),
		ResumedJobs:     m.ResumedJobs.Load(),
		UnresumableJobs: m.UnresumableJobs.Load(),
		CacheRestored:   m.CacheRestored.Load(),
	}
}

// Options configures a Store.
type Options struct {
	// SyncWAL fsyncs the WAL after every journaled batch. Off, the WAL
	// is still written before mutations become visible (crash-consistent
	// against process death); on, it also survives power loss, at a
	// latency cost per Apply.
	SyncWAL bool
	// Metric is the distance metric of the service stack this store
	// backs. It is stamped into every pack header written and checked
	// on warm opens: a pack written for one metric never silently
	// serves another (the recorded coordinates mean different things).
	Metric geo.Metric
}

// File layout inside a store directory.
const (
	packFile  = "db.lbspack"
	walFile   = "wal.log"
	cacheFile = "cache.snapshot"
	jobsDir   = "jobs"
)

// Store is one durable data directory: the pack + WAL pair behind a
// database, per-job JSON state, and a cache snapshot. Open it once at
// startup; every sub-handle shares its Metrics.
type Store struct {
	dir  string
	opts Options
	m    Metrics

	mu   sync.Mutex
	live *LiveStore // non-nil once OpenLive recovered / created it
	// packEpoch is the epoch of the pack last opened or created.
	packEpoch atomic.Uint64
}

// Open opens (creating if needed) the store directory.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, jobsDir), 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, opts: opts}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the engine counters.
func (s *Store) Stats() Stats { return s.m.Snapshot() }

// PackPath is the database pack's location inside the store.
func (s *Store) PackPath() string { return filepath.Join(s.dir, packFile) }

// OpenOrCreateDatabase returns the store's database: a scan of the
// existing pack when one is present (warm=true), else gen() is
// invoked to build it cold and the result is packed for next time.
func (s *Store) OpenOrCreateDatabase(gen func() *lbs.Database) (db *lbs.Database, warm bool, err error) {
	db, _, warm, err = s.openOrCreatePack(gen)
	return db, warm, err
}

// openOrCreatePack is the one way the store opens its pack: a warm
// pack is scanned and its epoch returned; with no pack, gen() builds
// the database and it is packed at epoch 0. A warm pack recorded
// under a different metric than the store's is refused — its
// coordinates were laid out for another geometry.
func (s *Store) openOrCreatePack(gen func() *lbs.Database) (db *lbs.Database, epoch uint64, warm bool, err error) {
	defer func() { s.packEpoch.Store(epoch) }()
	path := s.PackPath()
	if _, statErr := os.Stat(path); statErr != nil {
		if db = gen(); db == nil {
			return nil, 0, false, fmt.Errorf("store: %s: no pack, and gen built no database", path)
		}
		if err := WritePackMetric(path, db, s.opts.Metric, 0, 0, &s.m); err != nil {
			return nil, 0, false, err
		}
		return db, 0, false, nil
	}
	db, epoch, metric, err := OpenDatabaseMetric(path, &s.m)
	if err != nil {
		return nil, 0, true, err
	}
	if metric != s.opts.Metric {
		return nil, 0, true, fmt.Errorf("store: %s: pack written for metric %s, store configured for %s", path, metric, s.opts.Metric)
	}
	return db, epoch, true, nil
}

// cacheStamp opens the cache snapshot file: a magic word and the
// epoch the snapshot was taken at, ahead of the cache's own stream.
var cacheStamp = [8]byte{'L', 'B', 'S', 'C', 'A', 'C', 'H', 'E'}

// epoch is the epoch of the data the store serves: the live
// database's when one is open, else the pack's.
func (s *Store) epoch() uint64 {
	if ls := s.Live(); ls != nil {
		return ls.db.Epoch()
	}
	return s.packEpoch.Load()
}

// SaveCache snapshots a CachedOracle's shards to the store, stamped
// with the epoch of the data it answered for. Take it after the last
// mutation (at shutdown): an answer cached at one epoch may be wrong
// at another.
func (s *Store) SaveCache(c *lbs.CachedOracle) error {
	path := filepath.Join(s.dir, cacheFile)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	var head [16]byte
	copy(head[:8], cacheStamp[:])
	binary.LittleEndian.PutUint64(head[8:], s.epoch())
	if _, err := f.Write(head[:]); err != nil {
		f.Close()
		return err
	}
	if err := c.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCache restores a cache snapshot if one exists and was taken at
// the epoch the store now serves, returning how many entries came
// back. Call it after the data is open (and its WAL replayed). Every
// other case serves cold and returns 0, nil: no snapshot; a snapshot
// from another epoch (a run that mutated and then stopped without
// SaveCache, whose mutations the WAL replayed); one with no stamp; or
// one whose configuration does not match the cache.
func (s *Store) LoadCache(c *lbs.CachedOracle) (int, error) {
	f, err := os.Open(filepath.Join(s.dir, cacheFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	var head [16]byte
	if _, err := io.ReadFull(f, head[:]); err != nil || [8]byte(head[:8]) != cacheStamp ||
		binary.LittleEndian.Uint64(head[8:]) != s.epoch() {
		return 0, nil
	}
	n, err := c.ReadSnapshot(f)
	s.m.CacheRestored.Add(uint64(n))
	if err != nil && n == 0 {
		// Mismatched or unreadable snapshots load nothing; cold is safe.
		return 0, nil
	}
	return n, err
}

// Jobs returns the per-job persistence backend rooted in the store.
func (s *Store) Jobs() *JobStore {
	return &JobStore{dir: filepath.Join(s.dir, jobsDir), m: &s.m}
}

// Live returns the LiveStore once OpenLive created it (nil before).
func (s *Store) Live() *LiveStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Checkpoint flushes durable state: the live database (pack rewrite +
// WAL truncation) when one is open. Call it at graceful shutdown.
func (s *Store) Checkpoint() error {
	if ls := s.Live(); ls != nil {
		return ls.Checkpoint()
	}
	return nil
}

// Close checkpoints and releases the store's file handles.
func (s *Store) Close() error {
	err := s.Checkpoint()
	if ls := s.Live(); ls != nil {
		if cerr := ls.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Instrument wraps q so lbs.Walk (and so /v1/stats) finds the storage
// engine: the wrapper answers Stats() and passes every query
// through untouched.
func (s *Store) Instrument(q lbs.Querier) *Instrumented {
	return &Instrumented{Querier: q, s: s}
}

// OpenLive opens the store's durable live database. With no prior
// state, gen() builds the base (packed at epoch 0). With a pack and
// WAL present, the base loads from the pack and the WAL's valid
// prefix replays on top, reconstructing the pre-crash overlay at the
// recorded epoch. The returned database journals every Apply batch
// to the WAL before it becomes visible.
func (s *Store) OpenLive(gen func() *lbs.Database, opts lbs.Options, lopts live.Options) (*live.Database, error) {
	if lopts.Journal != nil {
		return nil, fmt.Errorf("store: OpenLive owns the journal; lopts.Journal must be nil")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live != nil {
		return nil, fmt.Errorf("store: live database already open")
	}
	ls, err := openLiveStore(s, gen, opts, lopts)
	if err != nil {
		return nil, err
	}
	s.live = ls
	return ls.db, nil
}
