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
// Sites are kept in one append-only slice in observation order, so a
// seeded run feeds cell.BuildFromSites the same site sequence every time
// (heap tie-breaking among equidistant sites never depends on map
// iteration order), and Sites hands that slice out without a copy.
type History struct {
	locs  map[int64]geom.Point
	sites []cell.Site // every observed tuple, in observation order
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{locs: make(map[int64]geom.Point)}
}

// Observe records a tuple sighting and reports whether it was new.
func (h *History) Observe(id int64, loc geom.Point) bool {
	if _, ok := h.locs[id]; ok {
		return false
	}
	h.locs[id] = loc
	h.sites = append(h.sites, cell.Site{Key: id, Loc: loc})
	return true
}

// Len returns the number of distinct tuples seen.
func (h *History) Len() int { return len(h.sites) }

// Loc returns the recorded location of a tuple.
func (h *History) Loc(id int64) (geom.Point, bool) {
	p, ok := h.locs[id]
	return p, ok
}

// Sites returns every observed tuple as a cell site, in observation
// order. The slice is the history's own storage: callers must treat it
// as read-only and not retain it across Observe calls. A target's own
// site, when present, coincides with the target and is dropped by
// cell.InsertSites' coincident-site filter, so callers building the
// target's cell need no copy that excludes it.
func (h *History) Sites() []cell.Site { return h.sites }

// CountCloser returns how many observed tuples are strictly closer to
// p than target is — used by the lower-bound skip test of §3.2.4 to
// decide membership in the top-h cell without a query, once disk
// coverage guarantees all relevant tuples have been observed.
func (h *History) CountCloser(p geom.Point, target geom.Point, excludeID int64) int {
	dt := p.Dist2(target)
	n := 0
	for _, s := range h.sites {
		if s.Key != excludeID && p.Dist2(s.Loc) < dt {
			n++
		}
	}
	return n
}
