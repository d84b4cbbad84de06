package shard

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// referencePartition is the plain splitter Partition must reproduce
// bit for bit: every split level sorts its whole window by (coordinate,
// ID) along the region's longer axis, cuts it at the population point,
// and the shards are built one after another in the order the
// recursion leaves them.
func referencePartition(db *lbs.Database, n int) []*lbs.Database {
	idxs := make([]int, db.Len())
	for i := range idxs {
		idxs[i] = i
	}
	out := make([]*lbs.Database, 0, n)
	referenceSplit(db, db.Bounds(), idxs, n, &out)
	return out
}

func referenceSplit(db *lbs.Database, region geom.Rect, idxs []int, n int, out *[]*lbs.Database) {
	if n == 1 {
		*out = append(*out, referenceBuild(db, region, idxs))
		return
	}
	nl := n / 2
	nr := n - nl
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
	referenceSplit(db, left, idxs[:cut], nl, out)
	referenceSplit(db, right, idxs[cut:], nr, out)
}

func referenceBuild(db *lbs.Database, region geom.Rect, idxs []int) *lbs.Database {
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

// withShuffledIDs returns db with its tuples' IDs permuted, so the ID
// tie-break no longer follows the source index order.
func withShuffledIDs(db *lbs.Database, seed int64) *lbs.Database {
	tuples := make([]lbs.Tuple, db.Len())
	effective := make([]geom.Point, db.Len())
	for i := range tuples {
		tuples[i] = *db.Tuple(i)
		effective[i] = db.EffectiveLoc(i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(tuples), func(a, b int) { tuples[a].ID, tuples[b].ID = tuples[b].ID, tuples[a].ID })
	return lbs.NewDatabaseWithLocations(db.Bounds(), tuples, effective)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRect(a, b geom.Rect) bool {
	return sameBits(a.Min.X, b.Min.X) && sameBits(a.Min.Y, b.Min.Y) &&
		sameBits(a.Max.X, b.Max.X) && sameBits(a.Max.Y, b.Max.Y)
}

// TestPartitionMatchesReference requires Partition to return exactly
// what the sort-every-level splitter returns: the same regions, the
// same tuples in the same order per shard, the same effective
// locations, bit for bit. The inputs cover plain data, jittered and
// grid-only obfuscation (many tuples share a split coordinate, so the
// ID tie-break decides the cut), IDs out of index order, tuples outside
// Bounds(), and more shards than tuples.
func TestPartitionMatchesReference(t *testing.T) {
	schools := workload.USASchools(3000, 17).DB
	grid := workload.SocialNetwork("wechat-grid", workload.SocialConfig{
		N: 3000, MaleFrac: 0.671, Seed: 23,
		Obfuscation: lbs.Obfuscation{GridSize: 0.05, Seed: 24},
	}).DB
	b := schools.Bounds()
	shrunk := geom.Rect{
		Min: geom.Pt(b.Min.X+b.Width()/4, b.Min.Y+b.Height()/4),
		Max: geom.Pt(b.Max.X-b.Width()/4, b.Max.Y-b.Height()/4),
	}
	strayTuples := make([]lbs.Tuple, 500)
	for i := range strayTuples {
		strayTuples[i] = *schools.Tuple(i)
	}
	small := workload.USASchools(5, 3).DB
	cases := []struct {
		name string
		db   *lbs.Database
	}{
		{"schools", schools},
		{"wechat", workload.WeChatChina(3000, 7).DB},
		{"wechat-grid", grid},
		{"wechat-grid-shuffled-ids", withShuffledIDs(grid, 5)},
		{"strays", lbs.NewDatabase(shrunk, strayTuples)},
		{"small", small},
		{"empty", lbs.NewDatabase(b, nil)},
	}
	counts := []int{1, 2, 3, 4, 5, 8, small.Len() + 3, 16}
	for _, c := range cases {
		for _, n := range counts {
			got, want := Partition(c.db, n), referencePartition(c.db, n)
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: %d parts, reference %d", c.name, n, len(got), len(want))
			}
			for s := range want {
				g, w := got[s], want[s]
				if !sameRect(g.Bounds(), w.Bounds()) {
					t.Fatalf("%s n=%d shard %d: region %v, reference %v", c.name, n, s, g.Bounds(), w.Bounds())
				}
				if g.Len() != w.Len() {
					t.Fatalf("%s n=%d shard %d: %d tuples, reference %d", c.name, n, s, g.Len(), w.Len())
				}
				for i := 0; i < w.Len(); i++ {
					if g.Tuple(i).ID != w.Tuple(i).ID {
						t.Fatalf("%s n=%d shard %d position %d: tuple %d, reference %d",
							c.name, n, s, i, g.Tuple(i).ID, w.Tuple(i).ID)
					}
					gp, wp := g.EffectiveLoc(i), w.EffectiveLoc(i)
					if !sameBits(gp.X, wp.X) || !sameBits(gp.Y, wp.Y) {
						t.Fatalf("%s n=%d shard %d position %d: effective %v, reference %v",
							c.name, n, s, i, gp, wp)
					}
				}
			}
		}
	}
}

// TestPartitionNaNLocation: a database holding a NaN effective
// location (a checksum-valid pack can carry one) still partitions into
// n shards holding every tuple once, and the call returns.
func TestPartitionNaNLocation(t *testing.T) {
	src := workload.USASchools(2000, 9).DB
	tuples := make([]lbs.Tuple, src.Len())
	effective := make([]geom.Point, src.Len())
	for i := range tuples {
		tuples[i] = *src.Tuple(i)
		effective[i] = src.EffectiveLoc(i)
	}
	effective[7].X = math.NaN()
	effective[1500].Y = math.NaN()
	db := lbs.NewDatabaseWithLocations(src.Bounds(), tuples, effective)
	for _, n := range []int{2, 4, 5, 8} {
		done := make(chan []*lbs.Database, 1)
		go func() { done <- Partition(db, n) }()
		var parts []*lbs.Database
		select {
		case parts = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("n=%d: Partition did not return", n)
		}
		if len(parts) != n {
			t.Fatalf("n=%d: got %d parts", n, len(parts))
		}
		seen := make(map[int64]bool)
		for _, p := range parts {
			for i := 0; i < p.Len(); i++ {
				if seen[p.Tuple(i).ID] {
					t.Fatalf("n=%d: tuple %d in two shards", n, p.Tuple(i).ID)
				}
				seen[p.Tuple(i).ID] = true
			}
		}
		if len(seen) != db.Len() {
			t.Fatalf("n=%d: %d tuples across shards, want %d", n, len(seen), db.Len())
		}
	}
}
