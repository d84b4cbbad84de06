package live

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// foldAt is the tail size (entries: inserted tuples, base tombstones
// and dead run tuples) at which Apply folds the tail into a new frozen
// run. It bounds what every mutation copies and rebuilds, and sets how
// often the O(overlay) fold runs: once per foldAt mutations.
const foldAt = 32

// run is the frozen tier of the overlay: the delta tuples (insertion
// order) with their ID index and candidate source, and the base
// tombstones, all as of the last fold. Snapshots share it until the
// next fold; nothing writes it once a snapshot holds it.
type run struct {
	tomb   map[int64]struct{}
	bloom  *idBloom // over tomb
	tuples []lbs.Tuple
	byID   map[int64]int
	cand   *lbs.Service // nil when tuples is empty
}

// emptyRun is the run of an overlay that has never folded.
var emptyRun = &run{bloom: &idBloom{}}

// idBloom is a fixed-size, one-hash Bloom filter over tuple IDs. The
// read filters test it before the overlay's ID sets, so a candidate
// that no set holds — nearly every candidate — costs one bit test
// instead of a map lookup per set; a set bit only sends the filter on
// to the sets. At 8192 bits it answers falsely for about 6% of IDs
// with 500 IDs added, 12% with 1024 (the default compaction
// threshold).
type idBloom [128]uint64

func (b *idBloom) bit(id int64) (word int, mask uint64) {
	h := uint64(id) * 0x9E3779B97F4A7C15 >> 51 // Fibonacci hash to 13 bits
	return int(h >> 6), 1 << (h & 63)
}

func (b *idBloom) add(id int64) {
	w, m := b.bit(id)
	b[w] |= m
}

func (b *idBloom) has(id int64) bool {
	w, m := b.bit(id)
	return b[w]&m != 0
}

// tail is the overlay's small tier: what happened since the last fold.
// Apply copies it whole; it holds fewer than about foldAt entries.
type tail struct {
	tomb   map[int64]struct{} // base tuples hidden since the fold
	dead   map[int64]struct{} // run tuples deleted or moved since the fold
	tuples []lbs.Tuple        // tuples inserted since the fold, in order
}

func (t *tail) size() int { return len(t.tomb) + len(t.dead) + len(t.tuples) }

// index returns the position of id among the tail's tuples, or −1.
func (t *tail) index(id int64) int {
	for i := range t.tuples {
		if t.tuples[i].ID == id {
			return i
		}
	}
	return -1
}

// clone copies the tail for an Apply to edit; snapshots already handed
// to readers keep theirs.
func (t *tail) clone() tail {
	return tail{
		tomb:   maps.Clone(t.tomb),
		dead:   maps.Clone(t.dead),
		tuples: slices.Clone(t.tuples),
	}
}

// overlay is what a live database holds over its base: a frozen run
// and a tail. Snapshots embed one; an Apply edits a copy whose tail is
// its own and whose run it replaces, never writes, when it folds.
type overlay struct {
	run  *run
	tail tail
}

// deltaLen counts the visible delta tuples; tombstones counts the
// hidden base tuples (the two tiers' tombstone sets are disjoint: a
// base ID is hidden once, and a reinserted one lives in the delta).
func (o *overlay) deltaLen() int {
	return len(o.run.tuples) - len(o.tail.dead) + len(o.tail.tuples)
}

func (o *overlay) tombstones() int { return len(o.run.tomb) + len(o.tail.tomb) }

func (o *overlay) size() int { return o.tombstones() + o.deltaLen() }

// hidden reports whether a base ID is tombstoned in either tier.
func (o *overlay) hidden(id int64) bool {
	if _, ok := o.run.tomb[id]; ok {
		return true
	}
	_, ok := o.tail.tomb[id]
	return ok
}

// eachDelta visits the visible delta tuples in insertion order: the
// run's survivors, then the tail's.
func (o *overlay) eachDelta(fn func(*lbs.Tuple)) {
	for i := range o.run.tuples {
		if _, dead := o.tail.dead[o.run.tuples[i].ID]; !dead {
			fn(&o.run.tuples[i])
		}
	}
	for i := range o.tail.tuples {
		fn(&o.tail.tuples[i])
	}
}

// fold moves the tail into a new frozen run, leaving the tail empty.
// The new run's candidate source is built when the overlay is frozen
// into a snapshot (buildSnapshot), so a batch that folds more than
// once builds it once.
func (o *overlay) fold() {
	r := &run{
		tomb:   make(map[int64]struct{}, o.tombstones()),
		bloom:  &idBloom{},
		tuples: make([]lbs.Tuple, 0, o.deltaLen()),
		byID:   make(map[int64]int, o.deltaLen()),
	}
	for _, set := range []map[int64]struct{}{o.run.tomb, o.tail.tomb} {
		for id := range set {
			r.tomb[id] = struct{}{}
			r.bloom.add(id)
		}
	}
	o.eachDelta(func(t *lbs.Tuple) {
		r.byID[t.ID] = len(r.tuples)
		r.tuples = append(r.tuples, *t)
	})
	o.run = r
	o.tail = tail{}
}

// touched lists the effective locations a batch of ops touched, in
// order: one per insert and delete, two per move (its old and its new
// location). Apply hands each to OnInvalidate.
type touched []geom.Point

func (t *touched) add(p geom.Point) { *t = append(*t, p) }

// apply executes one op against base+overlay, recording the locations
// it touches in dr. It returns the error that rejected the op, or nil
// after mutating the overlay's tail — and folding the tail into a new
// run once it holds foldAt entries.
func (o *overlay) apply(base *lbs.Database, op Op, dr *touched) error {
	var err error
	switch op.Kind {
	case OpInsert:
		err = o.insert(base, op.Tuple, dr)
	case OpDelete:
		err = o.delete(base, op.ID, dr)
	case OpMove:
		err = o.move(base, op.ID, op.Loc, dr)
	default:
		err = fmt.Errorf("live: unknown op kind %d", op.Kind)
	}
	if err == nil && o.tail.size() >= foldAt {
		o.fold()
	}
	return err
}

// move is one logical op: remove the old placement, insert the tuple
// at its destination. Both halves record their location.
func (o *overlay) move(base *lbs.Database, id int64, to geom.Point, dr *touched) error {
	t, _, ok := o.get(base, id)
	if !ok {
		return ErrUnknownID
	}
	if err := o.delete(base, id, dr); err != nil {
		return err
	}
	t.Loc = to
	return o.insert(base, t, dr)
}

// get returns a copy of the visible tuple with its effective location.
func (o *overlay) get(base *lbs.Database, id int64) (lbs.Tuple, geom.Point, bool) {
	if i := o.tail.index(id); i >= 0 {
		return o.tail.tuples[i], o.tail.tuples[i].Loc, true
	}
	if i, ok := o.run.byID[id]; ok {
		if _, dead := o.tail.dead[id]; !dead {
			return o.run.tuples[i], o.run.tuples[i].Loc, true
		}
	}
	// A dead run tuple that came from the base is tombstoned there.
	if o.hidden(id) {
		return lbs.Tuple{}, geom.Point{}, false
	}
	if t, ok := base.ByID(id); ok {
		loc, _ := base.EffectiveByID(id)
		return *t, loc, true
	}
	return lbs.Tuple{}, geom.Point{}, false
}

func (o *overlay) insert(base *lbs.Database, t lbs.Tuple, dr *touched) error {
	if _, _, ok := o.get(base, t.ID); ok {
		return ErrDuplicateID
	}
	// A tombstone for this ID stays: it hides the base copy while the
	// delta carries the new one.
	o.tail.tuples = append(o.tail.tuples, t)
	dr.add(t.Loc)
	return nil
}

func (o *overlay) delete(base *lbs.Database, id int64, dr *touched) error {
	if i := o.tail.index(id); i >= 0 {
		dr.add(o.tail.tuples[i].Loc)
		o.tail.tuples = slices.Delete(o.tail.tuples, i, i+1)
		return nil
	}
	if i, ok := o.run.byID[id]; ok {
		if _, dead := o.tail.dead[id]; !dead {
			dr.add(o.run.tuples[i].Loc)
			setAdd(&o.tail.dead, id)
			return nil
		}
	}
	if o.hidden(id) {
		return ErrUnknownID
	}
	loc, ok := base.EffectiveByID(id)
	if !ok {
		return ErrUnknownID
	}
	setAdd(&o.tail.tomb, id)
	dr.add(loc)
	return nil
}

// setAdd adds id to *set, making the set on first use (a copied empty
// tail carries nil sets).
func setAdd(set *map[int64]struct{}, id int64) {
	if *set == nil {
		*set = make(map[int64]struct{})
	}
	(*set)[id] = struct{}{}
}

// Apply implements Mutator: ops apply in order under one mutation
// lock; every applied op advances the epoch by one, and the whole
// batch becomes visible atomically in a single snapshot swap — the
// intermediate epochs exist in the Result stream but are never
// observable as snapshots. A failed op leaves state untouched and is
// reported in its Result; later ops still run. With a Journal
// attached, the applied ops are journaled before the swap; a journal
// error aborts the whole batch (every op reports the error, nothing
// becomes visible). Mutations never consume query budget.
func (d *Database) Apply(ctx context.Context, ops []Op) []Result {
	results := make([]Result, len(ops))
	if len(ops) == 0 {
		return results
	}
	d.mu.Lock()
	s := d.snap.Load()
	epoch := s.epoch
	o := overlay{run: s.run, tail: s.tail.clone()}
	var dr touched
	var appliedOps []Op
	for i := range ops {
		err := ctx.Err()
		if err == nil {
			err = ops[i].Validate()
		}
		if err == nil {
			err = o.apply(s.base, ops[i], &dr)
		}
		if err != nil {
			results[i] = Result{Epoch: epoch, Err: err}
			d.rejected.Add(1)
			continue
		}
		epoch++
		results[i] = Result{Epoch: epoch}
		appliedOps = append(appliedOps, ops[i])
	}
	if len(appliedOps) == 0 {
		d.mu.Unlock()
		return results
	}
	if d.journal != nil {
		// Write-ahead: the batch must be durable before it is visible.
		// On failure nothing happened — every op that would have applied
		// reports the journal error at the unchanged epoch.
		if err := d.journal.Append(s.epoch, appliedOps); err != nil {
			jerr := fmt.Errorf("live: journal append: %w", err)
			for i := range results {
				if results[i].Err == nil {
					results[i] = Result{Epoch: s.epoch, Err: jerr}
					d.rejected.Add(1)
				}
			}
			d.mu.Unlock()
			return results
		}
	}
	for _, op := range appliedOps {
		if d.lopts.CompactThreshold > 0 {
			// The op log only feeds compaction replay; with compaction
			// disabled it would just grow without bound.
			d.oplog = append(d.oplog, op)
		}
		switch op.Kind {
		case OpInsert:
			d.inserts.Add(1)
		case OpDelete:
			d.deletes.Add(1)
		case OpMove:
			d.moves.Add(1)
		}
	}
	d.snap.Store(d.buildSnapshot(s.baseTier, epoch, o))
	if d.lopts.CompactThreshold > 0 && o.size() >= d.lopts.CompactThreshold && !d.compacting {
		d.compacting = true
		go d.compactBG()
	}
	d.mu.Unlock()
	if d.lopts.OnInvalidate != nil {
		for _, p := range dr {
			d.lopts.OnInvalidate(geom.Rect{Min: p, Max: p})
		}
	}
	return results
}

// compactPass flattens one snapshot into a fresh base off-lock, then
// briefly takes the mutation lock to replay whatever ops landed
// meanwhile onto a fresh overlay and swap the result in. The epoch —
// and the visible contents — do not change at the swap; queries in
// flight keep their old snapshot.
func (d *Database) compactPass() {
	d.mu.Lock()
	s := d.snap.Load()
	pos := len(d.oplog) // ops ≤ pos are inside s and so inside newBase
	d.mu.Unlock()

	newBase := materialize(s) // heavy: full kd-tree rebuild, no locks held

	d.mu.Lock()
	defer d.mu.Unlock()
	o := overlay{run: emptyRun}
	var dr touched
	for _, op := range d.oplog[pos:] {
		// Replaying an op that originally succeeded against logically
		// identical contents cannot fail.
		if err := o.apply(newBase, op, &dr); err != nil {
			panic(fmt.Sprintf("live: compaction replay failed: %v", err))
		}
	}
	cur := d.snap.Load()
	d.snap.Store(d.buildSnapshot(d.newBaseTier(newBase), cur.epoch, o))
	d.oplog = append(d.oplog[:0:0], d.oplog[pos:]...)
	d.compactions.Add(1)
}

// compactBG is the background rebuilder: passes run serialized under
// cmu until the overlay is back below the threshold. The compacting
// flag (under mu) only prevents Apply from piling up goroutines; cmu
// is what serializes actual rebuild work against Compact. The size it
// stops on is read under mu together with the flag: Applies that land
// between a pass's swap and that check are counted, and any later
// Apply sees the flag down and triggers its own pass.
func (d *Database) compactBG() {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	for {
		d.compactPass()
		d.mu.Lock()
		if d.snap.Load().size() < d.lopts.CompactThreshold {
			d.compacting = false
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
	}
}

// Compact synchronously flattens the whole overlay into a fresh base,
// first waiting out any in-flight background pass. Tests and
// administrative tooling use it; normal operation relies on the
// background trigger.
func (d *Database) Compact() {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	for {
		d.mu.Lock()
		size := d.snap.Load().size()
		d.mu.Unlock()
		if size == 0 {
			return
		}
		d.compactPass()
	}
}
