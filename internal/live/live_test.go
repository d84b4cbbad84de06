package live_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/churn"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// model is the reference implementation of mutation semantics: a flat
// map of visible tuples with their effective locations, flattened into
// an immutable lbs.Database on demand. Every equivalence test compares
// the live overlay against a plain Service over the model.
type model struct {
	bounds geom.Rect
	tuples map[int64]lbs.Tuple
	eff    map[int64]geom.Point
}

func modelOf(db *lbs.Database) *model {
	m := &model{
		bounds: db.Bounds(),
		tuples: make(map[int64]lbs.Tuple, db.Len()),
		eff:    make(map[int64]geom.Point, db.Len()),
	}
	for i := 0; i < db.Len(); i++ {
		t := *db.Tuple(i)
		m.tuples[t.ID] = t
		m.eff[t.ID] = db.EffectiveLoc(i)
	}
	return m
}

func (m *model) apply(t *testing.T, op live.Op) {
	t.Helper()
	switch op.Kind {
	case live.OpInsert:
		if _, ok := m.tuples[op.Tuple.ID]; ok {
			t.Fatalf("model: duplicate insert %d", op.Tuple.ID)
		}
		m.tuples[op.Tuple.ID] = op.Tuple
		m.eff[op.Tuple.ID] = op.Tuple.Loc
	case live.OpDelete:
		if _, ok := m.tuples[op.ID]; !ok {
			t.Fatalf("model: delete of unknown %d", op.ID)
		}
		delete(m.tuples, op.ID)
		delete(m.eff, op.ID)
	case live.OpMove:
		tp, ok := m.tuples[op.ID]
		if !ok {
			t.Fatalf("model: move of unknown %d", op.ID)
		}
		tp.Loc = op.Loc
		m.tuples[op.ID] = tp
		m.eff[op.ID] = op.Loc
	}
}

// db flattens the model (sorted by ID — answer ordering is
// data-deterministic, so any order gives identical answers; sorting
// keeps the reference reproducible).
func (m *model) db() *lbs.Database {
	ids := make([]int64, 0, len(m.tuples))
	for id := range m.tuples {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	tuples := make([]lbs.Tuple, len(ids))
	effs := make([]geom.Point, len(ids))
	for i, id := range ids {
		tuples[i] = m.tuples[id]
		effs[i] = m.eff[id]
	}
	return lbs.NewDatabaseWithLocations(m.bounds, tuples, effs)
}

// queryPoints draws the adversarial mix: uniform interior points,
// exact tuple locations (distance ties) and out-of-bounds probes.
func queryPoints(rng *rand.Rand, db *lbs.Database, n int) []geom.Point {
	b := db.Bounds()
	pts := make([]geom.Point, 0, n+n/4+4)
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Pt(
			b.Min.X+rng.Float64()*b.Width(),
			b.Min.Y+rng.Float64()*b.Height()))
	}
	for i := 0; i < n/4 && db.Len() > 0; i++ {
		pts = append(pts, db.EffectiveLoc(rng.Intn(db.Len())))
	}
	pts = append(pts,
		geom.Pt(b.Min.X-b.Width(), b.Min.Y-b.Height()),
		geom.Pt(b.Max.X+b.Width(), b.Max.Y+b.Height()))
	return pts
}

// checkAgainst asserts q ≡ a plain Service over want, bit for bit,
// over serial and batch paths of both interface views.
func checkAgainst(t *testing.T, label string, q lbs.Querier, want *lbs.Database, opts lbs.Options, pts []geom.Point, filter lbs.Filter) {
	t.Helper()
	ctx := context.Background()
	ref := lbs.NewService(want, opts)
	for i, p := range pts {
		wantLR, err1 := ref.QueryLR(ctx, p, filter)
		gotLR, err2 := q.QueryLR(ctx, p, filter)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: point %d errs %v %v", label, i, err1, err2)
		}
		if !reflect.DeepEqual(wantLR, gotLR) {
			t.Fatalf("%s: point %d (%v) LR mismatch\nwant %+v\ngot  %+v", label, i, p, wantLR, gotLR)
		}
		wantLNR, _ := ref.QueryLNR(ctx, p, filter)
		gotLNR, err := q.QueryLNR(ctx, p, filter)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantLNR, gotLNR) {
			t.Fatalf("%s: point %d (%v) LNR mismatch", label, i, p)
		}
	}
	wantB, err1 := ref.QueryLRBatch(ctx, pts, filter)
	gotB, err2 := q.QueryLRBatch(ctx, pts, filter)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: batch errs %v %v", label, err1, err2)
	}
	if !reflect.DeepEqual(wantB, gotB) {
		t.Fatalf("%s: LR batch mismatch", label)
	}
	wantBN, _ := ref.QueryLNRBatch(ctx, pts, filter)
	gotBN, err := q.QueryLNRBatch(ctx, pts, filter)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantBN, gotBN) {
		t.Fatalf("%s: LNR batch mismatch", label)
	}
}

var liveScenarios = []struct {
	name string
	db   func() *lbs.Database
	opts lbs.Options
}{
	{"schools-k5", func() *lbs.Database { return workload.USASchools(300, 11).DB }, lbs.Options{K: 5}},
	{"schools-radius", func() *lbs.Database { return workload.USASchools(250, 13).DB }, lbs.Options{K: 4, MaxRadius: 40}},
	{"wechat-obfuscated", func() *lbs.Database { return workload.WeChatChina(300, 14).DB }, lbs.Options{K: 8}},
	{"restaurants-prominence", func() *lbs.Database { return workload.USARestaurants(250, 15).DB }, lbs.Options{
		K: 4, Rank: lbs.RankByProminence, ProminenceAttr: "rating", ProminenceWeight: 2,
	}},
}

// TestLiveCleanEquivalence: with churn disabled (no mutations ever
// applied) a live database answers bit-identically to the immutable
// service it wraps — serial and batch, LR and LNR, across rank modes.
func TestLiveCleanEquivalence(t *testing.T) {
	for _, sc := range liveScenarios {
		t.Run(sc.name, func(t *testing.T) {
			db := sc.db()
			d, err := live.New(db, sc.opts, live.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			checkAgainst(t, sc.name, d, db, sc.opts, queryPoints(rng, db, 40), nil)
			if d.Epoch() != 0 {
				t.Fatalf("epoch %d without mutations", d.Epoch())
			}
		})
	}
}

// TestLiveClusterCleanEquivalence: federated live databases over 1–8
// shards, churn disabled, stay bit-identical to a single service.
func TestLiveClusterCleanEquivalence(t *testing.T) {
	for _, sc := range liveScenarios {
		t.Run(sc.name, func(t *testing.T) {
			db := sc.db()
			rng := rand.New(rand.NewSource(8))
			pts := queryPoints(rng, db, 30)
			for _, n := range []int{1, 2, 4, 8} {
				c, err := live.NewCluster(db, sc.opts, n, live.Options{})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainst(t, sc.name, c, db, sc.opts, pts, nil)
			}
		})
	}
}

// TestLiveMutatedEquivalence is the core overlay property: after any
// prefix of a churn stream, the overlay answers bit-identically to a
// plain service over the materialized tuple set — inserts, deletes
// (tombstone filtering), moves, re-insertion after deletion, across
// rank modes and MaxRadius.
func TestLiveMutatedEquivalence(t *testing.T) {
	for _, sc := range liveScenarios {
		t.Run(sc.name, func(t *testing.T) {
			db := sc.db()
			// Compaction disabled: this test exercises the overlay merge
			// path specifically (compaction has its own equivalence test).
			d, err := live.New(db, sc.opts, live.Options{CompactThreshold: -1})
			if err != nil {
				t.Fatal(err)
			}
			m := modelOf(db)
			ops := churn.Ops(db, churn.Config{Seed: 42}, 120)
			rng := rand.New(rand.NewSource(9))
			ctx := context.Background()
			applied := 0
			for _, chunk := range [][]live.Op{ops[:40], ops[40:41], ops[41:120]} {
				for _, r := range d.Apply(ctx, chunk) {
					if r.Err != nil {
						t.Fatalf("churn op rejected: %v", r.Err)
					}
				}
				for _, op := range chunk {
					m.apply(t, op)
				}
				applied += len(chunk)
				want := m.db()
				checkAgainst(t, sc.name, d, want, sc.opts, queryPoints(rng, want, 25), nil)
				if got := d.Epoch(); got != uint64(applied) {
					t.Fatalf("epoch %d after %d ops", got, applied)
				}
				if got := d.Len(); got != want.Len() {
					t.Fatalf("Len %d, want %d", got, want.Len())
				}
			}
			if st := d.Stats(); st.Compactions != 0 {
				t.Fatalf("compaction ran despite being disabled: %+v", st)
			}
		})
	}
}

// TestLiveMutatedEquivalenceWithFilter: server-side selection filters
// compose with tombstone exclusion.
func TestLiveMutatedEquivalenceWithFilter(t *testing.T) {
	db := workload.USARestaurants(250, 21).DB
	opts := lbs.Options{K: 5}
	d, err := live.New(db, opts, live.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	m := modelOf(db)
	ops := churn.Ops(db, churn.Config{Seed: 5}, 80)
	for _, r := range d.Apply(context.Background(), ops) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for _, op := range ops {
		m.apply(t, op)
	}
	want := m.db()
	rng := rand.New(rand.NewSource(6))
	checkAgainst(t, "filtered", d, want, opts, queryPoints(rng, want, 30), lbs.CategoryFilter("restaurant"))
}

// TestLiveClusterMutatedEquivalence re-pins the federation property
// with mutation interleaved between query batches: the same op stream
// applied to a single live database and to 1/2/4/8-shard clusters
// keeps them bit-identical at every step — including cross-shard
// moves (delete+insert re-routing).
func TestLiveClusterMutatedEquivalence(t *testing.T) {
	db := workload.USASchools(300, 31).DB
	opts := lbs.Options{K: 5}
	ops := churn.Ops(db, churn.Config{Seed: 17, MoveSigma: 0.2}, 90)
	ctx := context.Background()
	for _, n := range []int{1, 2, 4, 8} {
		single, err := live.New(db, opts, live.Options{CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := live.NewCluster(db, opts, n, live.Options{CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		m := modelOf(db)
		rng := rand.New(rand.NewSource(int64(40 + n)))
		for start := 0; start < len(ops); start += 30 {
			chunk := ops[start : start+30]
			for i, r := range single.Apply(ctx, chunk) {
				if r.Err != nil {
					t.Fatalf("single op %d: %v", start+i, r.Err)
				}
			}
			for i, r := range cluster.Apply(ctx, chunk) {
				if r.Err != nil {
					t.Fatalf("cluster n=%d op %d: %v", n, start+i, r.Err)
				}
			}
			for _, op := range chunk {
				m.apply(t, op)
			}
			want := m.db()
			pts := queryPoints(rng, want, 20)
			checkAgainst(t, "single", single, want, opts, pts, nil)
			checkAgainst(t, "cluster", cluster, want, opts, pts, nil)
		}
		if cluster.Len() != single.Len() {
			t.Fatalf("n=%d: cluster Len %d != single %d", n, cluster.Len(), single.Len())
		}
	}
}

// TestLiveCompactionEquivalence: flattening the overlay into a fresh
// base changes answers not at all — same epoch, same bits — and
// leaves the overlay empty.
func TestLiveCompactionEquivalence(t *testing.T) {
	db := workload.USASchools(300, 51).DB
	opts := lbs.Options{K: 5}
	d, err := live.New(db, opts, live.Options{CompactThreshold: -1}) // manual compaction only
	if err != nil {
		t.Fatal(err)
	}
	ops := churn.Ops(db, churn.Config{Seed: 3}, 150)
	for _, r := range d.Apply(context.Background(), ops) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	rng := rand.New(rand.NewSource(12))
	pts := queryPoints(rng, db, 50)
	before := make([][]lbs.LRRecord, len(pts))
	for i, p := range pts {
		before[i], _ = d.QueryLR(context.Background(), p, nil)
	}
	epochBefore := d.Epoch()

	d.Compact()

	st := d.Stats()
	if st.DeltaLen != 0 || st.Tombstones != 0 {
		t.Fatalf("overlay not empty after Compact: %+v", st)
	}
	if st.Compactions == 0 {
		t.Fatal("no compaction recorded")
	}
	if d.Epoch() != epochBefore {
		t.Fatalf("compaction moved the epoch: %d -> %d", epochBefore, d.Epoch())
	}
	for i, p := range pts {
		after, err := d.QueryLR(context.Background(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before[i], after) {
			t.Fatalf("point %d: answers changed across compaction", i)
		}
	}
}

// TestLiveBackgroundCompaction: once the overlay crosses the
// threshold, the background rebuilder flattens it without any
// explicit call, and the answers still match the model.
func TestLiveBackgroundCompaction(t *testing.T) {
	db := workload.USASchools(200, 61).DB
	opts := lbs.Options{K: 4}
	d, err := live.New(db, opts, live.Options{CompactThreshold: 32})
	if err != nil {
		t.Fatal(err)
	}
	m := modelOf(db)
	ops := churn.Ops(db, churn.Config{Seed: 8}, 100)
	for _, op := range ops {
		if r := d.Apply(context.Background(), []live.Op{op})[0]; r.Err != nil {
			t.Fatal(r.Err)
		}
		m.apply(t, op)
	}
	// Wait for the (possibly still-starting) background pass to finish,
	// then verify the trigger fired and the overlay shrank back under
	// the threshold.
	deadline := time.Now().Add(10 * time.Second)
	var st live.Stats
	for {
		st = d.Stats()
		if st.Compactions > 0 && !st.Compacting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never finished: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.DeltaLen+st.Tombstones >= 32 {
		t.Fatalf("overlay still above threshold: %+v", st)
	}
	want := m.db()
	rng := rand.New(rand.NewSource(13))
	checkAgainst(t, "post-bg-compact", d, want, opts, queryPoints(rng, want, 30), nil)
}

// TestLiveMutationErrors pins the per-op error contract: failed ops
// reject without advancing the epoch or disturbing state, later ops
// in the batch still apply.
func TestLiveMutationErrors(t *testing.T) {
	db := workload.USASchools(50, 71).DB
	d, err := live.New(db, lbs.Options{K: 3}, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	existing := db.Tuple(0).ID
	b := db.Bounds()
	res := d.Apply(ctx, []live.Op{
		{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: existing, Loc: b.Center()}}, // dup
		{Kind: live.OpDelete, ID: 999999},                                      // unknown
		{Kind: live.OpMove, ID: 888888, Loc: b.Center()},                       // unknown
		{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: 777777, Loc: b.Center(), Name: "ok"}},
	})
	if !errors.Is(res[0].Err, live.ErrDuplicateID) {
		t.Fatalf("dup insert: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, live.ErrUnknownID) || !errors.Is(res[2].Err, live.ErrUnknownID) {
		t.Fatalf("unknown ops: %v %v", res[1].Err, res[2].Err)
	}
	if res[3].Err != nil || res[3].Epoch != 1 {
		t.Fatalf("valid op after failures: %+v", res[3])
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1", d.Epoch())
	}
	st := d.Stats()
	if st.Rejected != 3 || st.Inserts != 1 {
		t.Fatalf("counters: %+v", st)
	}
	// Delete-then-reinsert under the same ID: the tombstone hides the
	// base copy, the insert buffer carries the new one.
	res = d.Apply(ctx, []live.Op{
		{Kind: live.OpDelete, ID: existing},
		{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: existing, Loc: b.Center(), Name: "reborn"}},
	})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("delete+reinsert: %+v", res)
	}
	tp, loc, ok := d.Lookup(existing)
	if !ok || tp.Name != "reborn" || loc != b.Center() {
		t.Fatalf("lookup after reinsert: %+v %v %v", tp, loc, ok)
	}
}

// TestLiveBudget: the live database owns the logical budget; batch
// prefix semantics match a Service's exactly (granted prefix answered,
// nil holes, ErrBudgetExhausted). Mutations cost nothing.
func TestLiveBudget(t *testing.T) {
	db := workload.USASchools(100, 81).DB
	d, err := live.New(db, lbs.Options{K: 3, Budget: 10}, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ops := churn.Ops(db, churn.Config{Seed: 2}, 20)
	for _, r := range d.Apply(ctx, ops) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	pts := queryPoints(rng, db, 7)[:7]
	if _, err := d.QueryLRBatch(ctx, pts, nil); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if got := d.QueryCount(); got != 7 {
		t.Fatalf("count after 7-point batch: %d (mutations must not be charged)", got)
	}
	out, err := d.QueryLRBatch(ctx, pts[:5], nil)
	if !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	for i, recs := range out {
		if i < 3 && recs == nil {
			t.Fatalf("position %d inside grant is nil", i)
		}
		if i >= 3 && recs != nil {
			t.Fatalf("position %d beyond grant answered", i)
		}
	}
	if rem := d.RemainingBudget(); rem != 0 {
		t.Fatalf("remaining: %d", rem)
	}
	if _, err := d.QueryLR(ctx, pts[0], nil); !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("spent budget must refuse: %v", err)
	}
}

// TestClusterMutationRouting pins the routing rules: out-of-bounds
// inserts reject with live.ErrOutOfRegion, duplicate IDs are detected
// across shards, deletes find their owner by broadcast, cross-shard
// moves re-home the tuple.
func TestClusterMutationRouting(t *testing.T) {
	db := workload.USASchools(200, 91).DB
	c, err := live.NewCluster(db, lbs.Options{K: 3}, 4, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := db.Bounds()
	outside := geom.Pt(b.Max.X+b.Width(), b.Max.Y+b.Height())
	if r := c.Apply(ctx, []live.Op{{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: 500000, Loc: outside}}})[0]; !errors.Is(r.Err, live.ErrOutOfRegion) {
		t.Fatalf("out-of-region insert: %v", r.Err)
	}
	existing := db.Tuple(0).ID
	if r := c.Apply(ctx, []live.Op{{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: existing, Loc: b.Center()}}})[0]; !errors.Is(r.Err, live.ErrDuplicateID) {
		t.Fatalf("cross-shard duplicate insert: %v", r.Err)
	}
	// Move a corner tuple to the opposite corner: necessarily a
	// cross-shard re-home with 4 shards.
	cornerID := db.Tuple(0).ID
	best := db.EffectiveLoc(0).Dist(b.Min)
	for i := 1; i < db.Len(); i++ {
		if dd := db.EffectiveLoc(i).Dist(b.Min); dd < best {
			best = dd
			cornerID = db.Tuple(i).ID
		}
	}
	dest := geom.Pt(b.Max.X-b.Width()/100, b.Max.Y-b.Height()/100)
	if r := c.Apply(ctx, []live.Op{{Kind: live.OpMove, ID: cornerID, Loc: dest}})[0]; r.Err != nil {
		t.Fatalf("cross-shard move: %v", r.Err)
	}
	if _, loc, ok := c.Lookup(cornerID); !ok || loc != dest {
		t.Fatalf("moved tuple: ok=%v loc=%v want %v", ok, loc, dest)
	}
	if got, want := c.Len(), db.Len(); got != want {
		t.Fatalf("Len after move: %d, want %d", got, want)
	}
	if r := c.Apply(ctx, []live.Op{{Kind: live.OpDelete, ID: cornerID}})[0]; r.Err != nil {
		t.Fatalf("delete after re-home: %v", r.Err)
	}
	if _, _, ok := c.Lookup(cornerID); ok {
		t.Fatal("deleted tuple still visible")
	}
	if r := c.Apply(ctx, []live.Op{{Kind: live.OpMove, ID: cornerID, Loc: b.Center()}})[0]; !errors.Is(r.Err, live.ErrUnknownID) {
		t.Fatalf("move of deleted: %v", r.Err)
	}
}

// TestLiveCacheInvalidation is the acceptance pin for reach-bounded
// invalidation: a CachedOracle over a live database wired through
// OnInvalidate loses exactly the entries a mutated location lies
// within reach of — entries for far-away queries survive and keep
// replaying for free, with MaxRadius and without.
func TestLiveCacheInvalidation(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	var tuples []lbs.Tuple
	id := int64(1)
	for x := 5.0; x < 100; x += 10 {
		for y := 5.0; y < 100; y += 10 {
			tuples = append(tuples, lbs.Tuple{ID: id, Loc: geom.Pt(x, y)})
			id++
		}
	}
	db := lbs.NewDatabase(bounds, tuples)
	opts := lbs.Options{K: 3, MaxRadius: 8}
	var cache *lbs.CachedOracle
	d, err := live.New(db, opts, live.Options{OnInvalidate: func(r geom.Rect) { cache.Invalidate(r) }})
	if err != nil {
		t.Fatal(err)
	}
	cache = lbs.NewCachedOracle(d, lbs.CacheOptions{})
	ctx := context.Background()

	// Populate one cache entry per 10×10 block center: 100 entries.
	var qpts []geom.Point
	for x := 5.0; x < 100; x += 10 {
		for y := 5.0; y < 100; y += 10 {
			qpts = append(qpts, geom.Pt(x, y))
		}
	}
	for _, p := range qpts {
		if _, err := cache.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Entries != int64(len(qpts)) {
		t.Fatalf("entries %d, want %d", st.Entries, len(qpts))
	}

	// Mutate in the far corner block. Every answer here is short (one
	// tuple within MaxRadius = 8), so every reach is 8: only the query
	// point at (95,95) itself is within reach.
	if r := d.Apply(ctx, []live.Op{{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: 9999, Loc: geom.Pt(95, 95)}}})[0]; r.Err != nil {
		t.Fatal(r.Err)
	}
	st := cache.Stats()
	if st.Invalidations == 0 {
		t.Fatal("mutation invalidated nothing")
	}
	// The other 99 entries must survive.
	wantDropped := int64(1)
	if st.Invalidations != wantDropped {
		t.Fatalf("invalidations %d, want %d (region eviction must be local)", st.Invalidations, wantDropped)
	}
	if st.Entries != int64(len(qpts))-wantDropped {
		t.Fatalf("survivors %d, want %d", st.Entries, int64(len(qpts))-wantDropped)
	}
	// Surviving entries replay without touching the service…
	before := d.QueryCount()
	if _, err := cache.QueryLR(ctx, geom.Pt(5, 5), nil); err != nil {
		t.Fatal(err)
	}
	if d.QueryCount() != before {
		t.Fatal("surviving entry forwarded a query")
	}
	// …and the dirtied point re-fetches the post-mutation answer.
	recs, err := cache.QueryLR(ctx, geom.Pt(95, 95), nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.ID == 9999 {
			found = true
		}
	}
	if !found {
		t.Fatalf("refetched answer misses the inserted tuple: %+v", recs)
	}
	if d.QueryCount() != before+1 {
		t.Fatalf("dirtied point did not forward exactly one query: %d", d.QueryCount()-before)
	}

	// Without MaxRadius a full answer's reach is its K-th distance: the
	// answers at (5, y) hold (5, y) and two tuples 10 away, so deleting
	// the tuple at (5, 5) reaches (5, 5) and (5, 15) only. A far
	// mutation keeps the full answers it cannot change, and every
	// survivor equals a fresh answer.
	d2, err := live.New(db, lbs.Options{K: 3}, live.Options{OnInvalidate: func(r geom.Rect) { cache.Invalidate(r) }})
	if err != nil {
		t.Fatal(err)
	}
	cache = lbs.NewCachedOracle(d2, lbs.CacheOptions{})
	for _, p := range qpts[:10] {
		if _, err := cache.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r := d2.Apply(ctx, []live.Op{{Kind: live.OpDelete, ID: 1}})[0]; r.Err != nil {
		t.Fatal(r.Err)
	}
	if st := cache.Stats(); st.Entries != 8 || st.Invalidations != 2 {
		t.Fatalf("after a delete at (5,5): %+v, want 8 entries left and 2 invalidations", st)
	}
	before = d2.QueryCount()
	for _, p := range qpts[2:10] {
		got, err := cache.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lbs.NewService(d2.Snapshot(), lbs.Options{K: 3}).QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("survivor at %v is stale: %+v, fresh %+v", p, got, want)
		}
	}
	if d2.QueryCount() != before {
		t.Fatalf("survivors forwarded %d queries, want 0", d2.QueryCount()-before)
	}
}

// TestLiveSnapshotMaterialize: Snapshot() returns an immutable
// database equal to the model, usable for ground truth.
func TestLiveSnapshotMaterialize(t *testing.T) {
	db := workload.USASchools(150, 95).DB
	d, err := live.New(db, lbs.Options{K: 3}, live.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	m := modelOf(db)
	ops := churn.Ops(db, churn.Config{Seed: 19}, 60)
	for _, r := range d.Apply(context.Background(), ops) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for _, op := range ops {
		m.apply(t, op)
	}
	snap := d.Snapshot()
	want := m.db()
	if snap.Len() != want.Len() {
		t.Fatalf("snapshot len %d, want %d", snap.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		id := want.Tuple(i).ID
		tp, ok := snap.ByID(id)
		if !ok {
			t.Fatalf("snapshot missing tuple %d", id)
		}
		wtp, _ := want.ByID(id)
		if !reflect.DeepEqual(*tp, *wtp) {
			t.Fatalf("tuple %d differs: %+v vs %+v", id, *tp, *wtp)
		}
	}
}
