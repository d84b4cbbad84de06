package live_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
)

// orderModel is the slice model of a live database's materialized
// tuple order: the base tuples in base order (with their effective
// locations) minus the hidden ones, then the delta tuples in insertion
// order, where a move re-inserts the tuple last. Compaction is
// order-neutral — the new base is the old materialized order — so the
// model never needs to know when one ran.
type orderModel struct {
	base   []lbs.Tuple
	eff    []geom.Point
	hidden map[int64]bool
	delta  []lbs.Tuple
}

func orderModelOf(db *lbs.Database) *orderModel {
	m := &orderModel{hidden: map[int64]bool{}}
	for i := 0; i < db.Len(); i++ {
		m.base = append(m.base, *db.Tuple(i))
		m.eff = append(m.eff, db.EffectiveLoc(i))
	}
	return m
}

func (m *orderModel) deltaIndex(id int64) int {
	for i := range m.delta {
		if m.delta[i].ID == id {
			return i
		}
	}
	return -1
}

func (m *orderModel) baseIndex(id int64) int {
	for i := range m.base {
		if m.base[i].ID == id && !m.hidden[id] {
			return i
		}
	}
	return -1
}

// apply applies op to the model; false means op's target is absent.
func (m *orderModel) apply(op live.Op) bool {
	switch op.Kind {
	case live.OpInsert:
		m.delta = append(m.delta, op.Tuple)
	case live.OpDelete, live.OpMove:
		var tp lbs.Tuple
		if i := m.deltaIndex(op.ID); i >= 0 {
			tp = m.delta[i]
			m.delta = append(m.delta[:i], m.delta[i+1:]...)
		} else if i := m.baseIndex(op.ID); i >= 0 {
			tp = m.base[i]
			m.hidden[op.ID] = true
		} else {
			return false
		}
		if op.Kind == live.OpMove {
			tp.Loc = op.Loc
			m.delta = append(m.delta, tp)
		}
	}
	return true
}

// check compares a materialized database with the model, tuple by
// tuple and in order.
func (m *orderModel) check(t *testing.T, label string, snap *lbs.Database) {
	t.Helper()
	i := 0
	next := func(tp lbs.Tuple, eff geom.Point) {
		if i >= snap.Len() {
			t.Fatalf("%s: snapshot ends at %d tuples, model has more", label, i)
		}
		if got := *snap.Tuple(i); !sameTuple(got, tp) || snap.EffectiveLoc(i) != eff {
			t.Fatalf("%s: tuple %d is %d at %v, model %d at %v", label, i, got.ID, snap.EffectiveLoc(i), tp.ID, eff)
		}
		i++
	}
	for j := range m.base {
		if !m.hidden[m.base[j].ID] {
			next(m.base[j], m.eff[j])
		}
	}
	for _, tp := range m.delta {
		next(tp, tp.Loc)
	}
	if i != snap.Len() {
		t.Fatalf("%s: snapshot has %d tuples, model %d", label, snap.Len(), i)
	}
}

// sameTuple compares tuples field by field, the attribute maps by
// identity: the overlay copies tuples, never their maps, and a deep
// comparison of every map at every step is most of the test's time
// under the race detector.
func sameTuple(a, b lbs.Tuple) bool {
	return a.ID == b.ID && a.Loc == b.Loc && a.Name == b.Name && a.Category == b.Category &&
		reflect.ValueOf(a.Attrs).UnsafePointer() == reflect.ValueOf(b.Attrs).UnsafePointer() &&
		reflect.ValueOf(a.Tags).UnsafePointer() == reflect.ValueOf(b.Tags).UnsafePointer()
}

// tieredOps draws n ops whose targets spread over the overlay's tiers:
// untouched base tuples, delta tuples from long ago (in the frozen run
// after a fold) and delta tuples from the last few ops (in the tail).
// It tracks the visible IDs itself, so every op applies cleanly.
func tieredOps(rng *rand.Rand, m *orderModel, bounds geom.Rect, n int, nextID *int64) []live.Op {
	point := func() geom.Point {
		return geom.Pt(bounds.Min.X+rng.Float64()*bounds.Width(), bounds.Min.Y+rng.Float64()*bounds.Height())
	}
	// Private copy of the model: ops are drawn against the state they
	// will apply to.
	sim := &orderModel{base: m.base, eff: m.eff, hidden: map[int64]bool{}, delta: append([]lbs.Tuple(nil), m.delta...)}
	for id := range m.hidden {
		sim.hidden[id] = true
	}
	var ops []live.Op
	for len(ops) < n {
		var target int64 = -1
		switch tier := rng.Intn(3); {
		case tier == 0 || len(sim.delta) == 0:
			i := rng.Intn(len(sim.base))
			if !sim.hidden[sim.base[i].ID] {
				target = sim.base[i].ID
			}
		case tier == 1:
			target = sim.delta[rng.Intn(len(sim.delta)/2+1)].ID
		default:
			target = sim.delta[len(sim.delta)-1-rng.Intn(min(len(sim.delta), 8))].ID
		}
		var op live.Op
		switch r := rng.Intn(4); {
		case r == 0 || target < 0:
			op = live.Op{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: *nextID, Loc: point(), Name: fmt.Sprint("new-", *nextID)}}
			*nextID++
		case r == 1:
			op = live.Op{Kind: live.OpDelete, ID: target}
		default:
			op = live.Op{Kind: live.OpMove, ID: target, Loc: point()}
		}
		sim.apply(op)
		ops = append(ops, op)
	}
	return ops
}

// TestLiveFoldEquivalence pins the two-tier overlay op by op: random
// inserts, deletes and moves of tuples resident in the base, the
// frozen run and the tail, applied singly (and now and then as one
// batch that folds mid-way), with background and explicit compaction
// in between. After every Apply, the database answers exactly as a
// fresh service over its Snapshot, the Snapshot's tuple order is the
// slice model's, and the visible count and every touched ID's lookup
// agree with the model.
func TestLiveFoldEquivalence(t *testing.T) {
	ctx := context.Background()
	for si, sc := range liveScenarios {
		seed := int64(si + 1)
		t.Run(sc.name, func(t *testing.T) {
			db := sc.db()
			d, err := live.New(db, sc.opts, live.Options{CompactThreshold: 150})
			if err != nil {
				t.Fatal(err)
			}
			m := orderModelOf(db)
			rng := rand.New(rand.NewSource(seed))
			nextID := int64(1 << 40)
			for step := 0; step < 160; step++ {
				n := 1
				if step%50 == 49 {
					n = 45 // crosses a fold inside one Apply
				}
				ops := tieredOps(rng, m, db.Bounds(), n, &nextID)
				for i, r := range d.Apply(ctx, ops) {
					if r.Err != nil {
						t.Fatalf("step %d op %d (%v): %v", step, i, ops[i].Kind, r.Err)
					}
				}
				for _, op := range ops {
					if !m.apply(op) {
						t.Fatalf("step %d: model: %v of absent %d", step, op.Kind, op.ID)
					}
				}
				if step%70 == 69 {
					d.Compact()
				}
				label := fmt.Sprintf("seed %d step %d", seed, step)
				snap := d.Snapshot()
				m.check(t, label, snap)
				if d.Len() != snap.Len() {
					t.Fatalf("%s: Len %d, snapshot %d", label, d.Len(), snap.Len())
				}
				for _, op := range ops {
					id := op.ID
					if op.Kind == live.OpInsert {
						id = op.Tuple.ID
					}
					tp, loc, ok := d.Lookup(id)
					want, wok := snap.ByID(id)
					if ok != wok || (ok && !sameTuple(tp, *want)) {
						t.Fatalf("%s: Lookup(%d) = %+v %v, snapshot %+v %v", label, id, tp, ok, want, wok)
					}
					if ok {
						if weff, _ := snap.EffectiveByID(id); loc != weff {
							t.Fatalf("%s: Lookup(%d) at %v, snapshot %v", label, id, loc, weff)
						}
					}
				}
				checkAgainst(t, label, d, snap, sc.opts, queryPoints(rng, snap, 4), nil)
			}
			if st := d.Stats(); st.Compactions == 0 {
				t.Fatalf("no compaction ran: %+v", st)
			}
		})
	}
}
