package live

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/shard"
)

// Cluster is a federated live database: the spatial partitioner splits
// an immutable base into N shard databases, each fronted by its own
// live.Database (candidate-source configuration, exactly as FromParts
// builds immutable members), federated back through a shard.Router.
// Queries go through the Router's scatter-gather unchanged — the
// Router cannot tell a live member from an immutable one — and stay
// bit-identical to a single live.Database over the union. Mutations
// route by ownership: inserts to the shard whose region contains the
// location, deletes to the shard holding the ID, moves in place when
// the destination stays in the owner's region and as delete+insert
// across shards otherwise.
type Cluster struct {
	*shard.Router
	opts    lbs.Options // normalized logical options
	members []*Database
	regions []geom.Rect

	mu       sync.Mutex // serializes mutation routing
	rejected int64
}

var _ lbs.Querier = (*Cluster)(nil)
var _ Mutator = (*Cluster)(nil)

// NewCluster partitions base into n live shards behind a router. opts
// are the logical service options (the router owns budget, limiter and
// rank selection; members are unmetered candidate sources); lopts
// applies to every member — OnInvalidate fires with each member's
// dirty region, so one cache above the router hooks all shards.
func NewCluster(base *lbs.Database, opts lbs.Options, n int, lopts Options) (*Cluster, error) {
	norm, err := opts.Normalized()
	if err != nil {
		return nil, err
	}
	if lopts.Journal != nil {
		// Every member would share the one journal, interleaving per-shard
		// epoch streams that recovery cannot untangle. Durable live state
		// is single-database for now (store.OpenLive).
		return nil, fmt.Errorf("live: journaling a cluster is not supported")
	}
	parts := shard.Partition(base, n)
	c := &Cluster{
		opts:    norm,
		members: make([]*Database, len(parts)),
		regions: make([]geom.Rect, len(parts)),
	}
	shards := make([]shard.Shard, len(parts))
	for i, p := range parts {
		member, err := New(p, lbs.Options{K: norm.CandidateCount(), MaxRadius: norm.MaxRadius, Metric: norm.Metric}, lopts)
		if err != nil {
			return nil, err
		}
		c.members[i] = member
		c.regions[i] = p.Bounds()
		shards[i] = shard.Shard{Querier: member, Region: p.Bounds()}
	}
	c.Router, err = shard.NewRouter(shards, opts)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// exactContains is region containment without the geometric Eps slack:
// routing a mutation by Contains could place a tuple marginally
// outside its shard region and break the Router's ball-pruning
// invariant (every member tuple's effective location inside Region).
// Shard regions tile the bounds with shared boundaries, so any
// in-bounds location is exactly inside at least one region.
func exactContains(r geom.Rect, p geom.Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ownerRegion returns the first shard whose region exactly contains p,
// or −1. Boundary locations sit in two regions; first match keeps the
// choice deterministic.
func (c *Cluster) ownerRegion(p geom.Point) int {
	for i, r := range c.regions {
		if exactContains(r, p) {
			return i
		}
	}
	return -1
}

// ownerOfID returns the shard currently holding id, or −1.
func (c *Cluster) ownerOfID(id int64) int {
	for i, m := range c.members {
		if _, _, ok := m.Lookup(id); ok {
			return i
		}
	}
	return -1
}

// Epoch returns the sum of the member epochs: monotone, advancing
// with every applied mutation. A cross-shard move advances it by two
// (a delete and an insert on different members).
func (c *Cluster) Epoch() uint64 {
	var e uint64
	for _, m := range c.members {
		e += m.Epoch()
	}
	return e
}

// Lookup returns the tuple with the given ID from whichever shard
// holds it.
func (c *Cluster) Lookup(id int64) (lbs.Tuple, geom.Point, bool) {
	for _, m := range c.members {
		if t, loc, ok := m.Lookup(id); ok {
			return t, loc, true
		}
	}
	return lbs.Tuple{}, geom.Point{}, false
}

// Len returns the number of visible tuples across all shards.
func (c *Cluster) Len() int {
	n := 0
	for _, m := range c.members {
		n += m.Len()
	}
	return n
}

// Inner implements lbs.Wrapper: the router beneath the cluster, whose
// federation Stats the cluster's own Stats shadows.
func (c *Cluster) Inner() lbs.Querier { return c.Router }

// Stats aggregates the members' live counters; the router's federation
// counters stay reachable through Inner.
func (c *Cluster) Stats() Stats {
	var out Stats
	for _, m := range c.members {
		st := m.Stats()
		out.Epoch += st.Epoch
		out.BaseLen += st.BaseLen
		out.DeltaLen += st.DeltaLen
		out.Tombstones += st.Tombstones
		out.Inserts += st.Inserts
		out.Deletes += st.Deletes
		out.Moves += st.Moves
		out.Rejected += st.Rejected
		out.Compactions += st.Compactions
		out.Compacting = out.Compacting || st.Compacting
	}
	c.mu.Lock()
	out.Rejected += c.rejected
	c.mu.Unlock()
	return out
}

// Apply implements Mutator: each op routes to its owning shard, in
// order, under one routing lock. A cross-shard move is delete+insert
// on two members — not atomic across them: a concurrent query between
// the two halves can observe the tuple absent (never duplicated).
func (c *Cluster) Apply(ctx context.Context, ops []Op) []Result {
	results := make([]Result, len(ops))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range ops {
		results[i] = c.applyOne(ctx, ops[i])
	}
	return results
}

func (c *Cluster) applyOne(ctx context.Context, op Op) Result {
	fail := func(err error) Result {
		c.rejected++
		return Result{Epoch: c.Epoch(), Err: err}
	}
	switch op.Kind {
	case OpInsert:
		si := c.ownerRegion(op.Tuple.Loc)
		if si < 0 {
			return fail(ErrOutOfRegion)
		}
		if oi := c.ownerOfID(op.Tuple.ID); oi >= 0 {
			// Present on another shard: the owner member cannot see the
			// duplicate, so reject here.
			return fail(ErrDuplicateID)
		}
		r := c.members[si].Apply(ctx, []Op{op})[0]
		return Result{Epoch: c.Epoch(), Err: r.Err}
	case OpDelete:
		si := c.ownerOfID(op.ID)
		if si < 0 {
			return fail(ErrUnknownID)
		}
		r := c.members[si].Apply(ctx, []Op{op})[0]
		return Result{Epoch: c.Epoch(), Err: r.Err}
	case OpMove:
		si := c.ownerOfID(op.ID)
		if si < 0 {
			return fail(ErrUnknownID)
		}
		if exactContains(c.regions[si], op.Loc) {
			r := c.members[si].Apply(ctx, []Op{op})[0]
			return Result{Epoch: c.Epoch(), Err: r.Err}
		}
		ti := c.ownerRegion(op.Loc)
		if ti < 0 {
			return fail(ErrOutOfRegion) // tuple untouched
		}
		t, _, _ := c.members[si].Lookup(op.ID)
		t.Loc = op.Loc
		if r := c.members[si].Apply(ctx, []Op{{Kind: OpDelete, ID: op.ID}})[0]; r.Err != nil {
			return fail(r.Err)
		}
		r := c.members[ti].Apply(ctx, []Op{{Kind: OpInsert, Tuple: t}})[0]
		return Result{Epoch: c.Epoch(), Err: r.Err}
	}
	return fail(fmt.Errorf("live: unknown op kind %d", op.Kind))
}
