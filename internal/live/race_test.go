package live_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/churn"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// TestLiveEpochConsistency is the concurrency property the epoch
// counter exists for: under a concurrent mutator, any query bracketed
// by two equal Epoch() reads returned the answer of exactly that
// epoch — never a mix of pre- and post-mutation tuples. The expected
// answer for every (epoch, query) pair is precomputed serially from
// the reference model; reader goroutines then race the writer and
// check every bracketed observation against the table. Background
// compaction stays enabled so snapshot swaps from the rebuilder race
// the readers too. Run under -race, this also shakes out unsynchronized
// snapshot access.
func TestLiveEpochConsistency(t *testing.T) {
	db := workload.USASchools(150, 101).DB
	opts := lbs.Options{K: 3}
	ops := churn.Ops(db, churn.Config{Seed: 55}, 200)

	qset := []geom.Point{
		db.Bounds().Center(),
		db.EffectiveLoc(0),
		db.EffectiveLoc(db.Len() / 2),
		geom.Pt(db.Bounds().Min.X+db.Bounds().Width()/4, db.Bounds().Min.Y+db.Bounds().Height()/4),
		geom.Pt(db.Bounds().Max.X, db.Bounds().Max.Y),
	}

	// expected[e][qi]: the answer to qset[qi] at epoch e.
	m := modelOf(db)
	expected := make([][][]lbs.LRRecord, len(ops)+1)
	snapAnswers := func() [][]lbs.LRRecord {
		svc := lbs.NewService(m.db(), opts)
		out := make([][]lbs.LRRecord, len(qset))
		for i, q := range qset {
			recs, err := svc.QueryLR(context.Background(), q, nil)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = recs
		}
		return out
	}
	expected[0] = snapAnswers()
	for i, op := range ops {
		m.apply(t, op)
		expected[i+1] = snapAnswers()
	}

	d, err := live.New(db, opts, live.Options{CompactThreshold: 48})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var done atomic.Bool
	var checked atomic.Int64
	var wg sync.WaitGroup

	// One writer: ops applied one at a time, so every epoch 0..len(ops)
	// is a real visible state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for _, op := range ops {
			if r := d.Apply(ctx, []live.Op{op})[0]; r.Err != nil {
				t.Errorf("writer: %v", r.Err)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			qi := r
			for !done.Load() {
				qi = (qi + 1) % len(qset)
				e1 := d.Epoch()
				recs, err := d.QueryLR(ctx, qset[qi], nil)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				e2 := d.Epoch()
				if e1 != e2 {
					continue // mutation raced the query; no claim to check
				}
				if !reflect.DeepEqual(recs, expected[e1][qi]) {
					t.Errorf("epoch %d query %d: answer does not match that epoch's contents\nwant %+v\ngot  %+v",
						e1, qi, expected[e1][qi], recs)
					return
				}
				checked.Add(1)
			}
		}(r)
	}
	wg.Wait()

	// Quiescent final check: every query must be at the final epoch.
	for qi, q := range qset {
		recs, err := d.QueryLR(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recs, expected[len(ops)][qi]) {
			t.Fatalf("final epoch query %d mismatch", qi)
		}
	}
	if checked.Load() == 0 {
		t.Fatal("no bracketed observation was ever checked")
	}
}

// TestLiveClusterConcurrentSmoke races queries, batch queries, stats
// and a mutation stream against a 4-shard cluster — under -race this
// pins down that the federation path over live members is properly
// synchronized (bit-level equality under concurrent mutation is pinned
// serially by TestLiveClusterMutatedEquivalence; per-query epoch
// bracketing is a single-database property).
func TestLiveClusterConcurrentSmoke(t *testing.T) {
	db := workload.USASchools(200, 111).DB
	c, err := live.NewCluster(db, lbs.Options{K: 4}, 4, live.Options{CompactThreshold: 32})
	if err != nil {
		t.Fatal(err)
	}
	ops := churn.Ops(db, churn.Config{Seed: 77, MoveSigma: 0.3}, 300)
	ctx := context.Background()
	var done atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for start := 0; start < len(ops); start += 10 {
			for _, r := range c.Apply(ctx, ops[start:start+10]) {
				if r.Err != nil {
					t.Errorf("cluster writer: %v", r.Err)
					return
				}
			}
		}
	}()

	b := db.Bounds()
	pts := []geom.Point{b.Center(), b.Min, b.Max, geom.Pt(b.Min.X, b.Max.Y)}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !done.Load() {
				if _, err := c.QueryLR(ctx, pts[r%len(pts)], nil); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if _, err := c.QueryLNRBatch(ctx, pts, nil); err != nil {
					t.Errorf("batch reader: %v", err)
					return
				}
				_ = c.Stats()
				_ = c.Epoch()
			}
		}(r)
	}
	wg.Wait()

	st := c.Stats()
	if st.Epoch == 0 || st.Rejected != 0 {
		t.Fatalf("cluster stats after run: %+v", st)
	}
}
