package core

import (
	"repro/internal/cell"
	"repro/internal/geom"
)

// History accumulates every tuple location an LR estimation run has
// observed, across all queries of all samples. Because the hidden
// database is static, past observations stay valid, and the history
// lets later Voronoi-cell computations start from a much tighter
// initial bounding region (the "leveraging history" device, §3.2.2)
// and provides the λ_h upper bounds for the adaptive top-h choice
// (§3.2.3) at zero query cost.
//
// Sites are kept in one append-only cell.SiteGrid in observation
// order, so a seeded run feeds the cell builds the same site sequence
// every time, and Sites hands that sequence out without a copy. The
// grid indexes the sites by location: Order draws a target's sites in
// increasing distance, equidistant ones in observation order, from the
// cells around the target, and CountCloser reads only the cells its
// disk covers, so neither visits the whole history. The ID index maps
// each tuple to its position in the sequence.
type History struct {
	index map[int64]int32
	grid  cell.SiteGrid // every observed tuple, in observation order
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{index: make(map[int64]int32)}
}

// Observe records a tuple sighting and reports whether it was new.
func (h *History) Observe(id int64, loc geom.Point) bool {
	if _, ok := h.index[id]; ok {
		return false
	}
	h.index[id] = int32(h.grid.Len())
	h.grid.Add(cell.Site{Key: id, Loc: loc})
	return true
}

// Len returns the number of distinct tuples seen.
func (h *History) Len() int { return h.grid.Len() }

// Loc returns the recorded location of a tuple.
func (h *History) Loc(id int64) (geom.Point, bool) {
	i, ok := h.index[id]
	if !ok {
		return geom.Point{}, false
	}
	return h.grid.Sites()[i].Loc, true
}

// Sites returns every observed tuple as a cell site, in observation
// order. The slice is the history's own storage: callers must treat it
// as read-only and not retain it across Observe calls.
func (h *History) Sites() []cell.Site { return h.grid.Sites() }

// Order resets o to the history's sites in increasing distance from
// target, equidistant sites in observation order: the order
// o.Reset(target, h.Sites()) gives, drawn from the grid. A target's own
// site, when present, coincides with the target and is dropped by the
// order's coincident-site filter, so callers building the target's
// cell need no order that excludes it.
func (h *History) Order(o *cell.Order, target geom.Point) { o.ResetGrid(target, &h.grid) }

// CountCloser returns how many observed tuples are strictly closer to
// p than target is — used by the lower-bound skip test of §3.2.4 to
// decide membership in the top-h cell without a query, once disk
// coverage guarantees all relevant tuples have been observed.
func (h *History) CountCloser(p geom.Point, target geom.Point, excludeID int64) int {
	return h.grid.CountCloser(p, target, excludeID)
}
