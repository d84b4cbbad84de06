package live_test

// Cache freshness: an answer cache hooked to a live backend's
// OnInvalidate drops only the entries a mutation can change (each
// entry's reach), so every entry that survives a mutation must still
// equal the backend's own answer at its point, bit for bit.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/churn"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// liveBackend is what the freshness tests mutate and read directly: a
// live database or a live cluster.
type liveBackend interface {
	lbs.Querier
	live.Mutator
}

// cachedLive builds a live backend over db (a cluster when shards > 1)
// and an answer cache over it, hooked to its OnInvalidate.
func cachedLive(t testing.TB, db *lbs.Database, opts lbs.Options, shards int) (liveBackend, *lbs.CachedOracle) {
	t.Helper()
	var cache *lbs.CachedOracle
	lopts := live.Options{CompactThreshold: 64, OnInvalidate: func(r geom.Rect) { cache.Invalidate(r) }}
	var b liveBackend
	var err error
	if shards > 1 {
		b, err = live.NewCluster(db, opts, shards, lopts)
	} else {
		b, err = live.New(db, opts, lopts)
	}
	if err != nil {
		t.Fatal(err)
	}
	cache = lbs.NewCachedOracle(b, lbs.CacheOptions{})
	return b, cache
}

// sameBits reports whether two answers are equal bit for bit: IDs,
// location and distance bits, names, categories, attributes and tags.
func sameBits(a, b []lbs.LRRecord) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.ID != y.ID || x.Name != y.Name || x.Category != y.Category ||
			math.Float64bits(x.Loc.X) != math.Float64bits(y.Loc.X) ||
			math.Float64bits(x.Loc.Y) != math.Float64bits(y.Loc.Y) ||
			math.Float64bits(x.Dist) != math.Float64bits(y.Dist) ||
			!reflect.DeepEqual(x.Attrs, y.Attrs) || !reflect.DeepEqual(x.Tags, y.Tags) {
			return false
		}
	}
	return true
}

// checkFresh reads every point through the cache and straight from
// the backend and fails on the first answer that differs. Reading
// through the cache also refills what the last mutation dropped, so
// after a check every point is resident again.
func checkFresh(t testing.TB, label string, b liveBackend, cache *lbs.CachedOracle, pts []geom.Point) {
	t.Helper()
	ctx := context.Background()
	for _, p := range pts {
		got, err := cache.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := b.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("%s: stale cached answer at %v\ncached %+v\nfresh  %+v", label, p, got, want)
		}
	}
}

// freshFixture is the data of one freshness case: a database, its
// query points and the radius a bounded case runs at.
type freshFixture struct {
	name   string
	db     *lbs.Database
	metric geo.Metric
	k      int
	radius float64
	pts    []geom.Point
}

// schoolsFixture is Euclidean: 400 schools, query points at uniform
// positions and at tuple locations, radius about the median K-th
// neighbour distance so bounded answers are both full and short.
func schoolsFixture() freshFixture {
	db := workload.USASchools(400, 41).DB
	rng := rand.New(rand.NewSource(42))
	f := freshFixture{name: "schools", db: db, k: 4, pts: queryPoints(rng, db, 40)}
	svc := lbs.NewService(db, lbs.Options{K: f.k})
	var far []float64
	for _, p := range f.pts {
		recs, _ := svc.QueryLR(context.Background(), p, nil)
		far = append(far, recs[len(recs)-1].Dist)
	}
	sort.Float64s(far)
	f.radius = far[len(far)/2]
	return f
}

// lonLatFixture is Haversine over the region of geodesic_test.go: a
// 0.5° lattice over lon [0, 10] × lat [40, 50] with a fifth of its
// sites left out, and query points on the lattice's meridians, where
// a K-th record often shares the query's longitude and the latitude
// bound of RectMinDist meets the canonical distance.
func lonLatFixture() freshFixture {
	bounds := geom.NewRect(geom.Pt(0, 40), geom.Pt(10, 50))
	rng := rand.New(rand.NewSource(43))
	var tuples []lbs.Tuple
	for i := 0; i <= 20; i++ {
		for j := 0; j <= 20; j++ {
			if rng.Intn(5) == 0 {
				continue
			}
			tuples = append(tuples, lbs.Tuple{ID: int64(len(tuples) + 1), Loc: geom.Pt(float64(i)/2, 40+float64(j)/2)})
		}
	}
	f := freshFixture{name: "lonlat", db: lbs.NewDatabase(bounds, tuples), metric: geo.Haversine, k: 3, radius: 60}
	for i := 0; i < 40; i++ {
		f.pts = append(f.pts, geom.Pt(float64(rng.Intn(21))/2, 40+rng.Float64()*10))
	}
	for i := 0; i < 8; i++ {
		f.pts = append(f.pts, tuples[rng.Intn(len(tuples))].Loc)
	}
	return f
}

// exactTies is the mutation source the churn stream lacks: inserts at
// exactly a cached answer's K-th record location — so at exactly its
// reach — with an ID below every base ID (the insert enters the
// answer) or above it (it does not), and deletes of such inserts while
// they are some answer's K-th record.
type exactTies struct {
	low, high int64
	placed    map[int64]bool
}

func (x *exactTies) next(t testing.TB, rng *rand.Rand, b liveBackend, pts []geom.Point) (live.Op, bool) {
	t.Helper()
	recs, err := b.QueryLR(context.Background(), pts[rng.Intn(len(pts))], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < b.K() {
		return live.Op{}, false
	}
	kth := recs[b.K()-1]
	if x.placed[kth.ID] && rng.Intn(3) == 0 {
		delete(x.placed, kth.ID)
		return live.Op{Kind: live.OpDelete, ID: kth.ID}, true
	}
	id := x.high
	if rng.Intn(2) == 0 {
		id = x.low
		x.low--
	} else {
		x.high++
	}
	x.placed[id] = true
	return live.Op{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: id, Loc: kth.Loc, Category: "tie"}}, true
}

// TestCacheFreshAfterEveryApply: over a live database and a 4-shard
// live cluster, with and without MaxRadius, under Euclidean and
// Haversine, every answer the cache holds after a mutation equals the
// backend's own answer. Mutations are a churn stream in batches of one
// to three ops, interleaved with inserts at exactly a cached answer's
// K-th distance (IDs below and above the K-th record's) and deletes of
// them; after each batch every query point is read.
func TestCacheFreshAfterEveryApply(t *testing.T) {
	for _, f := range []freshFixture{schoolsFixture(), lonLatFixture()} {
		for _, radius := range []float64{0, f.radius} {
			for _, shards := range []int{1, 4} {
				f, radius, shards := f, radius, shards
				t.Run(fmt.Sprintf("%s/radius=%.4g/shards=%d", f.name, radius, shards), func(t *testing.T) {
					opts := lbs.Options{K: f.k, MaxRadius: radius, Metric: f.metric}
					b, cache := cachedLive(t, f.db, opts, shards)
					rng := rand.New(rand.NewSource(int64(shards) + int64(radius)))
					ops := churn.Ops(f.db, churn.Config{Seed: 44}, 120)
					ties := &exactTies{low: -1, high: 1 << 40, placed: map[int64]bool{}}
					ctx := context.Background()
					checkFresh(t, "cold", b, cache, f.pts)
					for step := 0; len(ops) > 0; step++ {
						batch := ops[:min(1+rng.Intn(3), len(ops))]
						ops = ops[len(batch):]
						if step%2 == 0 {
							if op, ok := ties.next(t, rng, b, f.pts); ok {
								batch = append([]live.Op{op}, batch...)
							}
						}
						for i, r := range b.Apply(ctx, batch) {
							if r.Err != nil {
								t.Fatalf("step %d op %d %+v: %v", step, i, batch[i], r.Err)
							}
						}
						checkFresh(t, fmt.Sprintf("step %d", step), b, cache, f.pts)
					}
					// The cache must have kept answers across mutations,
					// or the check above proved nothing about survivors.
					st := cache.Stats()
					if st.Hits == 0 || st.Invalidations == 0 {
						t.Fatalf("no survivor or no invalidation to check: %+v", st)
					}
				})
			}
		}
	}
}

// TestCacheFreshConcurrentReaders: four readers query through the
// cache while one writer applies a churn stream, one op per Apply. A
// read that starts after the writer saw epoch e's Apply return — and
// so after e's invalidation hook — must return the contents of an
// epoch from e on, never an earlier one: the expected answer of every
// (epoch, point) pair is precomputed from the reference model.
func TestCacheFreshConcurrentReaders(t *testing.T) {
	db := workload.USASchools(300, 51).DB
	rng := rand.New(rand.NewSource(52))
	pts := queryPoints(rng, db, 8)
	ops := churn.Ops(db, churn.Config{Seed: 53}, 150)
	for _, radius := range []float64{0, 30} {
		t.Run(fmt.Sprintf("radius=%g", radius), func(t *testing.T) {
			opts := lbs.Options{K: 4, MaxRadius: radius}
			m := modelOf(db)
			expected := make([][][]lbs.LRRecord, len(ops)+1)
			answers := func() [][]lbs.LRRecord {
				svc := lbs.NewService(m.db(), opts)
				out := make([][]lbs.LRRecord, len(pts))
				for i, p := range pts {
					out[i], _ = svc.QueryLR(context.Background(), p, nil)
				}
				return out
			}
			expected[0] = answers()
			for i, op := range ops {
				m.apply(t, op)
				expected[i+1] = answers()
			}

			b, cache := cachedLive(t, db, opts, 1)
			d := b.(*live.Database)
			ctx := context.Background()
			var seen atomic.Uint64 // the last epoch whose Apply, hooks included, returned
			var done atomic.Bool
			var checked atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				for _, op := range ops {
					r := d.Apply(ctx, []live.Op{op})[0]
					if r.Err != nil {
						t.Errorf("writer: %v", r.Err)
						return
					}
					seen.Store(r.Epoch)
				}
			}()
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(qi int) {
					defer wg.Done()
					for !done.Load() {
						qi = (qi + 1) % len(pts)
						from := seen.Load()
						recs, err := cache.QueryLR(ctx, pts[qi], nil)
						if err != nil {
							t.Errorf("reader: %v", err)
							return
						}
						to := d.Epoch()
						ok := false
						for e := from; e <= to && !ok; e++ {
							ok = sameBits(recs, expected[e][qi])
						}
						if !ok {
							t.Errorf("point %d read after epoch %d's hook: answer matches no epoch in [%d, %d]\ngot %+v", qi, from, from, to, recs)
							return
						}
						checked.Add(1)
					}
				}(r)
			}
			wg.Wait()
			for qi, p := range pts {
				recs, err := cache.QueryLR(ctx, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(recs, expected[len(ops)][qi]) {
					t.Fatalf("final epoch: point %d stale", qi)
				}
			}
			if checked.Load() == 0 {
				t.Fatal("no read was checked")
			}
		})
	}
}
