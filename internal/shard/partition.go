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
	"fmt"
	"math"
	"sort"

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
func Partition(db *lbs.Database, n int) []*lbs.Database {
	if n < 1 {
		panic(fmt.Sprintf("shard: Partition needs n ≥ 1, got %d", n))
	}
	idxs := make([]int, db.Len())
	for i := range idxs {
		idxs[i] = i
	}
	out := make([]*lbs.Database, 0, n)
	splitRecursive(db, db.Bounds(), idxs, n, &out)
	return out
}

// splitRecursive divides (region, idxs) into n parts appended to out.
func splitRecursive(db *lbs.Database, region geom.Rect, idxs []int, n int, out *[]*lbs.Database) {
	if n == 1 {
		*out = append(*out, buildPart(db, region, idxs))
		return
	}
	nl := n / 2
	nr := n - nl

	// Split along the region's longer axis at the population point
	// dividing the tuples proportionally to the part counts.
	axis := 0
	if region.Height() > region.Width() {
		axis = 1
	}
	coord := func(i int) float64 {
		p := db.EffectiveLoc(i)
		if axis == 0 {
			return p.X
		}
		return p.Y
	}
	sort.Slice(idxs, func(a, b int) bool {
		ca, cb := coord(idxs[a]), coord(idxs[b])
		if ca != cb {
			return ca < cb
		}
		return db.Tuple(idxs[a]).ID < db.Tuple(idxs[b]).ID
	})
	cut := len(idxs) * nl / n
	// The split coordinate: the first tuple of the right part, or the
	// geometric midpoint when a side is empty. Both child regions keep
	// the split line, so tuples sitting exactly on it are inside their
	// region whichever side the population cut put them on.
	var s float64
	if cut > 0 && cut < len(idxs) {
		s = coord(idxs[cut])
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
	splitRecursive(db, left, idxs[:cut], nl, out)
	splitRecursive(db, right, idxs[cut:], nr, out)
}

// buildPart materializes one shard database. The leaf region grows to
// cover any tuple lying outside it — NewDatabase accepts tuples
// outside Bounds(), and such strays sort into an edge shard whose
// clipped region would not contain them, which would let the Router's
// ball pruning skip the shard that owns the true nearest tuple. For
// in-bounds data (every generated workload; obfuscated locations are
// clamped) the growth is a no-op and regions tile Bounds() exactly.
func buildPart(db *lbs.Database, region geom.Rect, idxs []int) *lbs.Database {
	tuples := make([]lbs.Tuple, len(idxs))
	effective := make([]geom.Point, len(idxs))
	for j, i := range idxs {
		tuples[j] = *db.Tuple(i)
		effective[j] = db.EffectiveLoc(i)
		p := effective[j]
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
