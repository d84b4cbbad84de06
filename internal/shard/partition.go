// Package shard scales the simulated LBS out horizontally: a spatial
// partitioner splits one lbs.Database into N disjoint shard databases,
// and a Router federates any set of shard queriers — in-process
// services or remote HTTP upstreams — back into a single lbs.Querier
// whose answers are bit-identical to a lone service over the union
// database.
//
// The partitioning scheme is recursive longest-axis median splitting
// (the standard spatial scale-out move, cf. the LSST multi-petabyte
// partitioning design): each split divides the current region at a
// tuple-population median along its longer axis, so the N regions tile
// the original bounds exactly and carry balanced tuple counts even
// under heavily skewed workloads.
//
// Federated queries run as two-phase scatter-gather (see Router):
// phase one asks the shard owning the query point for its candidates
// and derives the k-th-neighbor distance bound; phase two fans out
// only to shards whose regions intersect that ball, merges all
// candidates by (dist, ID) — the service ordering contract — and
// re-applies the rank/prominence selection.
package shard

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// Partition splits db into n disjoint shard databases by recursive
// longest-axis median splits over db.Bounds(). The returned databases'
// Bounds() are the shard regions: they tile db.Bounds() exactly
// (adjacent regions share their boundary line), every tuple is
// assigned to exactly one shard, and every tuple's effective (possibly
// obfuscated) location lies inside its shard's region — the invariant
// the Router's ball-intersection pruning relies on. Effective
// locations are carried over verbatim via NewDatabaseWithLocations, so
// an obfuscated database shards without re-deriving its jitter.
//
// Shards with zero tuples are legal (n larger than the tuple count, or
// extreme skew): they answer every query with an empty result.
//
// Cost: one compact key per tuple (both coordinates, the ID and the
// source index), an O(len) selection per cut under the (coordinate, ID)
// order, and one sort per shard under its last cut's order, which is
// the tuple order a full sort at every level would leave. The shard
// databases (tuple copies, ID maps, kd-trees) are built concurrently
// on at most GOMAXPROCS goroutines. Unless a location is NaN, the
// output is identical to sorting every window at every level.
func Partition(db *lbs.Database, n int) []*lbs.Database {
	if n < 1 {
		panic(fmt.Sprintf("shard: Partition needs n ≥ 1, got %d", n))
	}
	keys := make([]partKey, db.Len())
	for i := range keys {
		p := db.EffectiveLoc(i)
		keys[i] = partKey{c: [2]float64{p.X, p.Y}, id: db.Tuple(i).ID, idx: i}
	}
	leaves := splitKeys(db.Bounds(), keys, n, -1, make([]leaf, 0, n))
	out := make([]*lbs.Database, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(leaves); i = int(next.Add(1)) - 1 {
				out[i] = leaves[i].build(db)
			}
		}()
	}
	wg.Wait()
	return out
}

// partKey is one tuple as the splitter orders it: its effective
// coordinates, its ID (the tie-break) and its index in the source
// database.
type partKey struct {
	c   [2]float64
	id  int64
	idx int
}

// compare is the split order along axis (0 = x, 1 = y): coordinate,
// then ID. IDs are unique, so it is a strict total order; it is the
// float order on numbers, and a NaN coordinate sorts before them all.
func (k *partKey) compare(o *partKey, axis int) int {
	if c := cmp.Compare(k.c[axis], o.c[axis]); c != 0 {
		return c
	}
	return cmp.Compare(k.id, o.id)
}

// leaf is one shard to build: its region and its keys, ordered by the
// split that produced it (axis; -1 when n = 1 leaves the source order).
type leaf struct {
	region geom.Rect
	keys   []partKey
	axis   int
}

// splitKeys divides (region, keys) into n leaves appended to leaves;
// axis is the order of the enclosing split.
func splitKeys(region geom.Rect, keys []partKey, n, axis int, leaves []leaf) []leaf {
	if n == 1 {
		return append(leaves, leaf{region: region, keys: keys, axis: axis})
	}
	nl := n / 2
	nr := n - nl

	// Split along the region's longer axis at the population point
	// dividing the tuples proportionally to the part counts.
	axis = 0
	if region.Height() > region.Width() {
		axis = 1
	}
	cut := len(keys) * nl / n
	// The split coordinate: the first tuple of the right part, or the
	// geometric midpoint when a side is empty. Both child regions keep
	// the split line, so tuples sitting exactly on it are inside their
	// region whichever side the population cut put them on.
	var s float64
	if cut > 0 && cut < len(keys) {
		selectNth(keys, cut, axis)
		s = keys[cut].c[axis]
	} else if axis == 0 {
		s = region.Min.X + region.Width()/2
	} else {
		s = region.Min.Y + region.Height()/2
	}
	var left, right geom.Rect
	if axis == 0 {
		left = geom.Rect{Min: region.Min, Max: geom.Pt(s, region.Max.Y)}
		right = geom.Rect{Min: geom.Pt(s, region.Min.Y), Max: region.Max}
	} else {
		left = geom.Rect{Min: region.Min, Max: geom.Pt(region.Max.X, s)}
		right = geom.Rect{Min: geom.Pt(region.Min.X, s), Max: region.Max}
	}
	leaves = splitKeys(left, keys[:cut], nl, axis, leaves)
	return splitKeys(right, keys[cut:], nr, axis, leaves)
}

// selectNth reorders keys so that keys[k] is the key a full sort along
// axis would put there, with every key before it ordered earlier and
// every key after it later. Quickselect with a median-of-three pivot;
// a window that has not shrunk to its answer within 2·log2(len) rounds
// is sorted instead, which bounds the worst case at O(len·log len).
func selectNth(keys []partKey, k, axis int) {
	lo, hi := 0, len(keys)
	for rounds := 2 * bits.Len(uint(len(keys))); hi-lo > 16 && rounds > 0; rounds-- {
		p := lo + partitionKeys(keys[lo:hi], axis)
		switch {
		case k < p:
			hi = p
		case k > p:
			lo = p + 1
		default:
			return
		}
	}
	sortKeys(keys[lo:hi], axis)
}

// partitionKeys moves the median of w's first, middle and last keys to
// its final place p and returns p: every key of w[:p] is before it
// along axis and every key of w[p+1:] after it. len(w) ≥ 3.
func partitionKeys(w []partKey, axis int) int {
	m, last := len(w)/2, len(w)-1
	if w[m].compare(&w[0], axis) < 0 {
		w[0], w[m] = w[m], w[0]
	}
	if w[last].compare(&w[0], axis) < 0 {
		w[0], w[last] = w[last], w[0]
	}
	if w[last].compare(&w[m], axis) < 0 {
		w[m], w[last] = w[last], w[m]
	}
	w[0], w[m] = w[m], w[0]
	pivot := w[0]
	i, j := 1, last
	for {
		for i <= j && w[i].compare(&pivot, axis) < 0 {
			i++
		}
		for i <= j && pivot.compare(&w[j], axis) < 0 {
			j--
		}
		if i >= j {
			break
		}
		w[i], w[j] = w[j], w[i]
		i++
		j--
	}
	w[0], w[j] = w[j], w[0]
	return j
}

// sortKeys sorts keys along axis.
func sortKeys(keys []partKey, axis int) {
	slices.SortFunc(keys, func(a, b partKey) int { return a.compare(&b, axis) })
}

// build materializes the leaf's shard database: its keys sorted by the
// split that produced it, then the tuples and effective locations
// copied in that order. The region grows to cover any tuple lying
// outside it — NewDatabase accepts tuples outside Bounds(), and such
// strays sort into an edge shard whose clipped region would not contain
// them, which would let the Router's ball pruning skip the shard that
// owns the true nearest tuple. For in-bounds data (every generated
// workload; obfuscated locations are clamped) the growth is a no-op and
// regions tile Bounds() exactly.
func (l *leaf) build(db *lbs.Database) *lbs.Database {
	if l.axis >= 0 {
		sortKeys(l.keys, l.axis)
	}
	region := l.region
	tuples := make([]lbs.Tuple, len(l.keys))
	effective := make([]geom.Point, len(l.keys))
	for j := range l.keys {
		i := l.keys[j].idx
		tuples[j] = *db.Tuple(i)
		p := db.EffectiveLoc(i)
		effective[j] = p
		region.Min.X = math.Min(region.Min.X, p.X)
		region.Min.Y = math.Min(region.Min.Y, p.Y)
		region.Max.X = math.Max(region.Max.X, p.X)
		region.Max.Y = math.Max(region.Max.Y, p.Y)
	}
	return lbs.NewDatabaseWithLocations(region, tuples, effective)
}

// FromPartsWrapped federates an existing partition as in-process
// shard services behind a Router with the given logical options and
// Resilience — the path from a database to a federated service
// ("lbsserve -shards n" passes Partition(db, n)). The shard services
// are built as plain distance-ranked candidate sources (K = the
// router's candidate count, shared MaxRadius, no budget of their
// own); the router owns the logical budget and rank/prominence
// selection, so the composite behaves exactly like
// NewService(db, opts). Each shard service is passed through wrap
// (when non-nil) before registration, so callers can interpose a
// fault injector, an instrumentation layer or a cache in front of
// individual members. Callers that run many independent federated
// sessions over one dataset — the experiment harness builds a fresh
// service per run — partition once and rebuild only this cheap layer.
func FromPartsWrapped(parts []*lbs.Database, opts lbs.Options, res Resilience, wrap func(i int, q lbs.Querier) lbs.Querier) (*Router, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	shards := make([]Shard, len(parts))
	for i, p := range parts {
		var q lbs.Querier = lbs.NewService(p, lbs.Options{K: opts.CandidateCount(), MaxRadius: opts.MaxRadius, Metric: opts.Metric})
		if wrap != nil {
			q = wrap(i, q)
		}
		shards[i] = Shard{Querier: q, Region: p.Bounds()}
	}
	return NewRouter(shards, opts, res)
}
