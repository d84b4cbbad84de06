// Package live adds mutation to the otherwise immutable LBS stack: a
// live.Database wraps an immutable lbs.Database with an LSM-style
// delta overlay — inserted tuples plus a tombstone set — merged into
// every answer inside the existing (dist, ID) ordering contract, so a
// live database with any overlay answers bit-identically to a plain
// lbs.Service over the materialized tuple set.
//
// The overlay has two tiers. A frozen run holds the delta tuples,
// their ID index, their candidate service and the base tombstones as
// of the last fold; every snapshot until the next fold shares it. A
// tail holds what happened since: the tuples inserted, the base tuples
// hidden and the run tuples deleted or moved. A mutation copies only
// the tail and rebuilds only its small candidate service, so it costs
// what it changes; once the tail holds foldAt entries it folds into a
// new frozen run, so the O(overlay) rebuild runs once per foldAt
// mutations.
//
// Reads never block on writes: every query resolves one atomic
// snapshot pointer and computes entirely against immutable state
// (lbs.Database values, frozen tombstone sets). Mutations are
// serialized under a mutex, copy the tail, edit the copy and swap a
// new snapshot in; a monotone epoch counter advances with every
// applied mutation, so two equal epochs always describe bit-identical
// contents. When the overlay outgrows a threshold, a background
// rebuilder compacts base+overlay into a fresh kd-tree-backed base and
// swaps it in — queries observe the swap only as the overlay emptying;
// the epoch (and the answers) do not change.
//
// Mutations rank inserts and moves at their given true location;
// obfuscation is a database-construction concern — callers wanting
// obfuscated effective locations apply the distortion before Apply.
package live

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// Mutation errors. Apply reports them per op; an op that fails leaves
// the database unchanged and does not advance the epoch.
var (
	// ErrUnknownID: delete or move of an ID not currently present.
	ErrUnknownID = errors.New("live: unknown tuple ID")
	// ErrDuplicateID: insert of an ID currently present.
	ErrDuplicateID = errors.New("live: duplicate tuple ID")
	// ErrOutOfRegion: cluster insert/move to a location no shard region
	// covers (outside the federation's bounds).
	ErrOutOfRegion = errors.New("live: location outside every shard region")
	// ErrNonFinite: insert/move to a location with a NaN or infinite
	// coordinate, which no distance can rank.
	ErrNonFinite = errors.New("live: non-finite location")
)

// OpKind selects what an Op does.
type OpKind uint8

const (
	// OpInsert adds Op.Tuple (its ID must not be present).
	OpInsert OpKind = iota
	// OpDelete removes the tuple with Op.ID.
	OpDelete
	// OpMove relocates the tuple with Op.ID to Op.Loc, keeping its
	// attributes. One move costs one epoch, not two.
	OpMove
)

// String names the kind for logs and wire encodings.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpMove:
		return "move"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one mutation.
type Op struct {
	Kind  OpKind
	Tuple lbs.Tuple  // OpInsert: the tuple to add
	ID    int64      // OpDelete, OpMove: the target tuple
	Loc   geom.Point // OpMove: the destination
}

// Validate reports ErrNonFinite for an insert or move to a location
// with a NaN or infinite coordinate, and nil for any other op.
func (op Op) Validate() error {
	var p geom.Point
	switch op.Kind {
	case OpInsert:
		p = op.Tuple.Loc
	case OpMove:
		p = op.Loc
	default:
		return nil
	}
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		return ErrNonFinite
	}
	return nil
}

// Result is the per-op outcome of Apply: the epoch the op applied at
// (the value Epoch reports once the op is visible), or the error that
// rejected it (Epoch then reports the last applied epoch).
type Result struct {
	Epoch uint64
	Err   error
}

// Mutator is the write surface of a live database — what the HTTP
// ingest endpoint and the churn workloads program against. Apply
// applies ops in order, each atomically; ops after a failed op are
// still attempted. Implementations are safe for concurrent use.
type Mutator interface {
	Apply(ctx context.Context, ops []Op) []Result
}

// Journal is the durability hook of a live database: Apply calls
// Append with each batch's applied ops — under the mutation lock,
// BEFORE the new snapshot becomes visible — so an implementation that
// persists the batch (internal/store's write-ahead log) makes every
// visible mutation recoverable. epochBefore is the database epoch the
// batch applies on top of; the ops are exactly the ones that
// succeeded, in order, each advancing the epoch by one. An Append
// error aborts the whole batch: nothing becomes visible, every op
// reports the journal error, and the epoch does not advance —
// durability failures are never silent.
//
// Append runs with the mutation lock held, so it serializes naturally
// against the journal owner's checkpointing; it must not call back
// into the database.
type Journal interface {
	Append(epochBefore uint64, ops []Op) error
}

// Options configures the mutable layer (the query semantics come from
// the lbs.Options passed to New).
type Options struct {
	// CompactThreshold is the overlay size (inserts + tombstones) that
	// triggers a background compaction into a fresh base. 0 means the
	// default (1024); negative disables compaction entirely.
	CompactThreshold int
	// OnInvalidate, when set, is called after each Apply that changed
	// the database, once per effective location the batch touched: an
	// insert's location, a delete's, and both ends of a move, each as a
	// zero-area rect. Query caches hook this to drop the entries whose
	// answers could have changed: an answer changes only when a touched
	// location lies within its reach (lbs.CachedOracle.Invalidate). The
	// callback runs outside the mutation lock, after the new snapshot is
	// visible — so answers cached between swap and callback are already
	// fresh and eviction is only ever conservative.
	OnInvalidate func(geom.Rect)
	// Journal, when set, records every applied batch before it becomes
	// visible (write-ahead). See Journal. Recovery paths that replay a
	// journal into a fresh database construct it without one and attach
	// it afterwards via SetJournal, so the replay is not re-journaled.
	Journal Journal
	// StartEpoch is the epoch the database begins at — 0 for a fresh
	// database, the checkpoint epoch when reconstructing recovered
	// state, so replayed mutations land at exactly the epochs they
	// originally applied at.
	StartEpoch uint64
}

// Stats is a point-in-time snapshot of a live database's shape and
// mutation counters.
type Stats struct {
	Epoch       uint64 `json:"epoch"`       // applied mutations since construction
	BaseLen     int    `json:"base_len"`    // tuples in the immutable base
	DeltaLen    int    `json:"delta_len"`   // inserted or moved tuples in the overlay
	Tombstones  int    `json:"tombstones"`  // base tuples hidden by deletion/move
	Inserts     int64  `json:"inserts"`     // applied OpInserts
	Deletes     int64  `json:"deletes"`     // applied OpDeletes
	Moves       int64  `json:"moves"`       // applied OpMoves
	Rejected    int64  `json:"rejected"`    // ops rejected with an error
	Compactions int64  `json:"compactions"` // completed background compactions
	Compacting  bool   `json:"compacting"`  // a compaction is in flight
}

// baseTier is an immutable base with its query service. Every
// snapshot over the same base shares it, so the service's scratch
// pool stays warm across mutations.
type baseTier struct {
	base *lbs.Database
	// baseCand is the base as a distance-ranked candidate source (K =
	// CandidateCount, shared MaxRadius, no budget). Merged with the
	// overlay tiers' candidate sources, its answers reproduce a single
	// service over the materialized tuples — the same member-service
	// construction the federation Router uses.
	baseCand *lbs.Service
}

// snapshot is one immutable point-in-time state: queries resolve the
// pointer once and never look back.
type snapshot struct {
	epoch uint64
	*baseTier
	overlay
	// tailCand is the tail's candidate source; nil when the tail holds
	// no tuples.
	tailCand *lbs.Service
	// bloom covers every ID the read filters hide: both tiers'
	// tombstones and the tail's dead run tuples.
	bloom *idBloom
	// baseKeep and runKeep are the unfiltered reads' filters (see
	// keep), composed once per snapshot instead of once per query.
	baseKeep, runKeep lbs.Filter
}

// keep returns a read's filters over the base, hiding both tiers'
// tombstones, and over the frozen run, hiding the run tuples the tail
// deleted or moved; each also applies filter. The tail's own
// candidates need only filter.
func (s *snapshot) keep(filter lbs.Filter) (base, run lbs.Filter) {
	base, run = filter, filter
	if s.tombstones() > 0 {
		base = func(t *lbs.Tuple) bool {
			if s.bloom.has(t.ID) && s.hidden(t.ID) {
				return false
			}
			return filter == nil || filter(t)
		}
	}
	if len(s.tail.dead) > 0 {
		run = func(t *lbs.Tuple) bool {
			if s.bloom.has(t.ID) {
				if _, dead := s.tail.dead[t.ID]; dead {
					return false
				}
			}
			return filter == nil || filter(t)
		}
	}
	return base, run
}

// Database is a mutable LBS: an immutable base plus a delta overlay,
// queryable through the full lbs.Querier surface with the exact
// semantics of an lbs.Service over the current tuple set — ordering,
// MaxRadius coverage, prominence ranking, budget and batch-prefix
// behavior included. It additionally implements Mutator. Safe for
// concurrent use; queries are lock-free.
type Database struct {
	opts  lbs.Options // logical options
	lopts Options
	meter *lbs.Meter
	snap  atomic.Pointer[snapshot]

	mu          sync.Mutex // serializes mutations and compaction bookkeeping
	cmu         sync.Mutex // serializes compaction passes (held across rebuilds)
	journal     Journal    // guarded by mu; nil = no durability hook
	oplog       []Op       // applied ops since the current base was built
	compacting  bool
	inserts     atomic.Int64
	deletes     atomic.Int64
	moves       atomic.Int64
	rejected    atomic.Int64
	compactions atomic.Int64
}

var (
	_ lbs.Querier = (*Database)(nil)
	_ Mutator     = (*Database)(nil)
)

const defaultCompactThreshold = 1024

// New builds a live database over an immutable base. opts are the
// logical service options (exactly as NewService takes them); lopts
// configures the mutable layer.
func New(base *lbs.Database, opts lbs.Options, lopts Options) (*Database, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if lopts.CompactThreshold == 0 {
		lopts.CompactThreshold = defaultCompactThreshold
	}
	d := &Database{
		opts:    opts,
		lopts:   lopts,
		journal: lopts.Journal,
		meter:   lbs.NewMeter(opts.Budget),
	}
	d.snap.Store(d.buildSnapshot(d.newBaseTier(base), lopts.StartEpoch, overlay{run: emptyRun}))
	return d, nil
}

// SetJournal attaches (or detaches, with nil) the durability hook.
// Recovery uses it: replay journal ops into a journal-less database,
// then attach the journal before serving mutations, so the replay is
// not recorded twice. It synchronizes with Apply — batches in flight
// finish under the journal they started with.
func (d *Database) SetJournal(j Journal) {
	d.mu.Lock()
	d.journal = j
	d.mu.Unlock()
}

// candOpts is the candidate-source configuration shared by the base
// and the overlay tiers (see baseTier).
func (d *Database) candOpts() lbs.Options {
	return lbs.Options{K: d.opts.CandidateCount(), MaxRadius: d.opts.MaxRadius, Metric: d.opts.Metric}
}

// newBaseTier wraps a freshly built base in its query service.
func (d *Database) newBaseTier(base *lbs.Database) *baseTier {
	return &baseTier{base: base, baseCand: lbs.NewService(base, d.candOpts())}
}

// candidates builds a candidate source over overlay tuples, or nil for
// none. Overlay effective locations are the tuples' true locations
// (see the package comment on obfuscation).
func (d *Database) candidates(bounds geom.Rect, tuples []lbs.Tuple) *lbs.Service {
	if len(tuples) == 0 {
		return nil
	}
	locs := make([]geom.Point, len(tuples))
	for i := range tuples {
		locs[i] = tuples[i].Loc
	}
	return lbs.NewService(lbs.NewDatabaseWithLocations(bounds, tuples, locs), d.candOpts())
}

// buildSnapshot freezes an overlay into a snapshot over bt. The
// snapshot owns o.tail from here on; a run that a fold in this Apply
// built gets its candidate source here (runs shared with earlier
// snapshots already have one).
func (d *Database) buildSnapshot(bt *baseTier, epoch uint64, o overlay) *snapshot {
	if o.run.cand == nil && len(o.run.tuples) > 0 {
		o.run.cand = d.candidates(bt.base.Bounds(), o.run.tuples)
	}
	s := &snapshot{
		epoch:    epoch,
		baseTier: bt,
		overlay:  o,
		tailCand: d.candidates(bt.base.Bounds(), o.tail.tuples),
		bloom:    o.run.bloom,
	}
	if len(o.tail.tomb)+len(o.tail.dead) > 0 {
		b := *o.run.bloom
		for _, set := range []map[int64]struct{}{o.tail.tomb, o.tail.dead} {
			for id := range set {
				b.add(id)
			}
		}
		s.bloom = &b
	}
	s.baseKeep, s.runKeep = s.keep(nil)
	return s
}

// Bounds implements lbs.Querier. The coverage region is fixed at
// construction; mutations happen within it.
func (d *Database) Bounds() geom.Rect { return d.snap.Load().base.Bounds() }

// K implements lbs.Querier.
func (d *Database) K() int { return d.opts.K }

// Metric returns the distance metric the live view ranks by.
func (d *Database) Metric() geo.Metric { return d.opts.Metric }

// Options returns the logical options.
func (d *Database) Options() lbs.Options { return d.opts }

// QueryCount implements lbs.Querier: answered points, the paper's cost
// metric. Mutations are not queries and are never charged.
func (d *Database) QueryCount() int64 { return d.meter.Count() }

// RemainingBudget reports how many queries the budget still covers
// (−1 = unlimited).
func (d *Database) RemainingBudget() int64 { return d.meter.Remaining() }

// Epoch returns the mutation epoch: the number of applied mutations.
// The epoch identifies contents — two equal epochs from one Database
// always describe bit-identical tuple sets (compaction reorganizes
// storage without touching either). Bracketing a query between two
// Epoch calls that agree proves the answer was computed at exactly
// that epoch.
func (d *Database) Epoch() uint64 { return d.snap.Load().epoch }

// Snapshot returns the current contents materialized as an immutable
// lbs.Database (base tuples minus tombstones plus the delta tuples,
// effective locations carried over). It is built fresh on every call —
// ground-truth evaluation and tests use it; queries never do.
func (d *Database) Snapshot() *lbs.Database {
	return materialize(d.snap.Load())
}

// SnapshotAt is Snapshot plus the epoch the snapshot is at, read from
// the same atomic load so the pair is consistent even under concurrent
// mutation. Checkpointing uses it: the materialized database and the
// epoch it captures travel together into the on-disk pack header.
func (d *Database) SnapshotAt() (*lbs.Database, uint64) {
	s := d.snap.Load()
	return materialize(s), s.epoch
}

// Lookup returns a copy of the tuple with the given ID as currently
// visible, with its effective (ranking) location.
func (d *Database) Lookup(id int64) (lbs.Tuple, geom.Point, bool) {
	s := d.snap.Load()
	return s.get(s.base, id)
}

// Len returns the number of currently visible tuples.
func (d *Database) Len() int {
	s := d.snap.Load()
	return s.base.Len() - s.tombstones() + s.deltaLen()
}

// Stats returns the database's shape and mutation counters.
func (d *Database) Stats() Stats {
	// The snapshot and the compacting flag are read under one lock
	// (snapshots swap under it), so a flag that is down comes with the
	// overlay that lowered it or a later one.
	d.mu.Lock()
	s := d.snap.Load()
	compacting := d.compacting
	d.mu.Unlock()
	return Stats{
		Epoch:       s.epoch,
		BaseLen:     s.base.Len(),
		DeltaLen:    s.deltaLen(),
		Tombstones:  s.tombstones(),
		Inserts:     d.inserts.Load(),
		Deletes:     d.deletes.Load(),
		Moves:       d.moves.Load(),
		Rejected:    d.rejected.Load(),
		Compactions: d.compactions.Load(),
		Compacting:  compacting,
	}
}

// materialize flattens a snapshot into one immutable lbs.Database:
// surviving base tuples (with their effective locations) followed by
// the delta tuples in insertion order — the frozen run's survivors,
// then the tail's — where a moved delta tuple counts as inserted at
// its move. Answer-identical to the overlay by the merge contract; the
// kd-tree layout differs, which the (dist, ID) ordering makes
// unobservable.
func materialize(s *snapshot) *lbs.Database {
	n := s.base.Len() - s.tombstones() + s.deltaLen()
	tuples := make([]lbs.Tuple, 0, n)
	locs := make([]geom.Point, 0, n)
	for i := 0; i < s.base.Len(); i++ {
		t := s.base.Tuple(i)
		if s.hidden(t.ID) {
			continue
		}
		tuples = append(tuples, *t)
		locs = append(locs, s.base.EffectiveLoc(i))
	}
	s.eachDelta(func(t *lbs.Tuple) {
		tuples = append(tuples, *t)
		locs = append(locs, t.Loc)
	})
	return lbs.NewDatabaseWithLocations(s.base.Bounds(), tuples, locs)
}
