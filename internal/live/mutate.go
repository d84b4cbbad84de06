package live

import (
	"fmt"
	"math"

	"context"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// overlay is the mutable working state of an Apply call: a private
// copy of the snapshot's tombstone set and insert buffer that ops
// edit in place before the whole thing freezes into a new snapshot.
type overlay struct {
	tomb        map[int64]struct{}
	deltaTuples []lbs.Tuple
	deltaByID   map[int64]int
}

// overlayFrom copies a snapshot's overlay. The copies are fresh on
// every Apply — snapshots already handed to readers are never touched.
func overlayFrom(s *snapshot) *overlay {
	o := &overlay{
		tomb:        make(map[int64]struct{}, len(s.tomb)+4),
		deltaTuples: append([]lbs.Tuple(nil), s.deltaTuples...),
		deltaByID:   make(map[int64]int, len(s.deltaByID)+4),
	}
	for id := range s.tomb {
		o.tomb[id] = struct{}{}
	}
	for id, i := range s.deltaByID {
		o.deltaByID[id] = i
	}
	return o
}

func (o *overlay) size() int { return len(o.tomb) + len(o.deltaTuples) }

// dirty accumulates the effective locations a batch of ops touched;
// the invalidation region derives from it.
type dirty struct {
	any  bool
	rect geom.Rect
}

func (dr *dirty) add(p geom.Point) {
	if !dr.any {
		dr.any = true
		dr.rect = geom.Rect{Min: p, Max: p}
		return
	}
	dr.rect.Min.X = math.Min(dr.rect.Min.X, p.X)
	dr.rect.Min.Y = math.Min(dr.rect.Min.Y, p.Y)
	dr.rect.Max.X = math.Max(dr.rect.Max.X, p.X)
	dr.rect.Max.Y = math.Max(dr.rect.Max.Y, p.Y)
}

// region returns the dirty region: the bounding box of metric balls
// of radius r around every touched location, or the whole plane when
// no finite influence radius exists (r ≤ 0). The expansion is
// metric-aware (geo.Metric.ExpandRect): under Haversine the margin
// converts km to degrees conservatively — wider at high latitude,
// full-circle at the poles — so the region always covers every query
// point a mutation could influence.
func (dr *dirty) region(m geo.Metric, r float64) geom.Rect {
	if r <= 0 {
		inf := math.Inf(1)
		return geom.Rect{Min: geom.Pt(-inf, -inf), Max: geom.Pt(inf, inf)}
	}
	return m.ExpandRect(dr.rect, r)
}

// present reports whether id is currently visible in base+overlay.
func (o *overlay) present(base *lbs.Database, id int64) bool {
	if _, ok := o.deltaByID[id]; ok {
		return true
	}
	if _, dead := o.tomb[id]; dead {
		return false
	}
	_, ok := base.ByID(id)
	return ok
}

// apply executes one op against base+overlay, recording touched
// locations in dr. It returns the error that rejected the op, or nil
// after mutating the overlay.
func (o *overlay) apply(base *lbs.Database, op Op, dr *dirty) error {
	switch op.Kind {
	case OpInsert:
		return o.insert(base, op.Tuple, dr)
	case OpDelete:
		return o.delete(base, op.ID, dr)
	case OpMove:
		t, _, ok := o.get(base, op.ID)
		if !ok {
			return ErrUnknownID
		}
		// One logical op: remove the old placement, insert the tuple at
		// its destination. Both halves touch the dirty region.
		if err := o.delete(base, op.ID, dr); err != nil {
			return err
		}
		t.Loc = op.Loc
		return o.insert(base, t, dr)
	}
	return fmt.Errorf("live: unknown op kind %d", op.Kind)
}

// get returns a copy of the visible tuple with its effective location.
func (o *overlay) get(base *lbs.Database, id int64) (lbs.Tuple, geom.Point, bool) {
	if i, ok := o.deltaByID[id]; ok {
		return o.deltaTuples[i], o.deltaTuples[i].Loc, true
	}
	if _, dead := o.tomb[id]; dead {
		return lbs.Tuple{}, geom.Point{}, false
	}
	if t, ok := base.ByID(id); ok {
		loc, _ := base.EffectiveByID(id)
		return *t, loc, true
	}
	return lbs.Tuple{}, geom.Point{}, false
}

func (o *overlay) insert(base *lbs.Database, t lbs.Tuple, dr *dirty) error {
	if o.present(base, t.ID) {
		return ErrDuplicateID
	}
	// A tombstone for this ID stays: it hides the base copy while the
	// insert buffer carries the new one.
	o.deltaByID[t.ID] = len(o.deltaTuples)
	o.deltaTuples = append(o.deltaTuples, t)
	dr.add(t.Loc)
	return nil
}

func (o *overlay) delete(base *lbs.Database, id int64, dr *dirty) error {
	if i, ok := o.deltaByID[id]; ok {
		dr.add(o.deltaTuples[i].Loc)
		o.deltaTuples = append(o.deltaTuples[:i], o.deltaTuples[i+1:]...)
		delete(o.deltaByID, id)
		for did, j := range o.deltaByID {
			if j > i {
				o.deltaByID[did] = j - 1
			}
		}
		return nil
	}
	if _, dead := o.tomb[id]; dead {
		return ErrUnknownID
	}
	loc, ok := base.EffectiveByID(id)
	if !ok {
		return ErrUnknownID
	}
	o.tomb[id] = struct{}{}
	dr.add(loc)
	return nil
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
	o := overlayFrom(s)
	var dr dirty
	var appliedOps []Op
	for i := range ops {
		if err := ctx.Err(); err != nil {
			results[i] = Result{Epoch: epoch, Err: err}
			d.rejected.Add(1)
			continue
		}
		if err := o.apply(s.base, ops[i], &dr); err != nil {
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
	d.snap.Store(d.buildSnapshot(s.base, epoch, o.tomb, o.deltaTuples, o.deltaByID))
	if d.lopts.CompactThreshold > 0 && o.size() >= d.lopts.CompactThreshold && !d.compacting {
		d.compacting = true
		go d.compactBG()
	}
	d.mu.Unlock()
	if d.lopts.OnInvalidate != nil {
		d.lopts.OnInvalidate(dr.region(d.opts.Metric, d.opts.MaxRadius))
	}
	return results
}

// compactPass flattens one snapshot into a fresh base off-lock, then
// briefly takes the mutation lock to replay whatever ops landed
// meanwhile onto a fresh overlay and swap the result in. The epoch —
// and the visible contents — do not change at the swap; queries in
// flight keep their old snapshot. It returns the overlay size left
// behind (the ops that raced the rebuild).
func (d *Database) compactPass() int {
	d.mu.Lock()
	s := d.snap.Load()
	pos := len(d.oplog) // ops ≤ pos are inside s and so inside newBase
	d.mu.Unlock()

	newBase := materialize(s) // heavy: full kd-tree rebuild, no locks held

	d.mu.Lock()
	defer d.mu.Unlock()
	o := &overlay{tomb: map[int64]struct{}{}, deltaByID: map[int64]int{}}
	var dr dirty
	for _, op := range d.oplog[pos:] {
		// Replaying an op that originally succeeded against logically
		// identical contents cannot fail.
		if err := o.apply(newBase, op, &dr); err != nil {
			panic(fmt.Sprintf("live: compaction replay failed: %v", err))
		}
	}
	cur := d.snap.Load()
	d.snap.Store(d.buildSnapshot(newBase, cur.epoch, o.tomb, o.deltaTuples, o.deltaByID))
	d.oplog = append(d.oplog[:0:0], d.oplog[pos:]...)
	d.compactions.Add(1)
	return o.size()
}

// compactBG is the background rebuilder: passes run serialized under
// cmu until the overlay is back below the threshold. The compacting
// flag (under mu) only prevents Apply from piling up goroutines; cmu
// is what serializes actual rebuild work against Compact.
func (d *Database) compactBG() {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	for {
		size := d.compactPass()
		d.mu.Lock()
		if size < d.lopts.CompactThreshold {
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
		clean := d.snap.Load().clean()
		d.mu.Unlock()
		if clean {
			return
		}
		d.compactPass()
	}
}
