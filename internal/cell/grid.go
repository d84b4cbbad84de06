package cell

import (
	"math"

	"repro/internal/geom"
)

// SiteGrid is an append-only site sequence with a uniform-grid index
// over it, so that an Order (ResetGrid) draws a target's nearest sites
// by searching grid cells in rings outward from the target, and
// CountCloser reads only the cells a disk covers, instead of visiting
// every site. Sites keep their insertion order (Sites), which is also
// the tie-break among equidistant sites: an Order over the grid draws
// in increasing (squared distance, insertion index) order.
//
// The grid follows the sites' density: it is rebuilt over the
// bounding box of every site, at about two sites per cell, each time
// the sequence doubles (from 16 sites on). A site that falls outside
// the box between rebuilds joins the nearest edge cell, which keeps
// every search exact (see ringBound). The index costs a 4-byte link
// per site plus a 4-byte list head per cell. The zero value is an
// empty grid.
type SiteGrid struct {
	sites []Site
	// next[i] is the site inserted before site i into its cell (−1
	// ends the chain); head[c] is the last site inserted into cell c.
	next []int32
	head []int32
	// The grid: nx × ny cells of side cs from (minX, minY); inv = 1/cs.
	minX, minY, cs, inv float64
	nx, ny              int
	// regridAt is the length at which Add rebuilds the grid; gen
	// counts rebuilds, so an Order can tell its ring state went stale.
	regridAt int
	gen      int
}

// sitesPerCell is the grid density a rebuild aims at; minRegrid is the
// length of the first rebuild (below it one cell holds every site).
const (
	sitesPerCell = 2
	minRegrid    = 16
)

// Len returns the number of sites.
func (g *SiteGrid) Len() int { return len(g.sites) }

// Sites returns every site in insertion order. The slice is the grid's
// own storage: treat it as read-only and do not retain it across Add.
func (g *SiteGrid) Sites() []Site { return g.sites }

// Add appends a site.
func (g *SiteGrid) Add(s Site) {
	g.sites = append(g.sites, s)
	if len(g.sites) >= g.regridAt {
		g.regrid()
		return
	}
	g.link(int32(len(g.sites) - 1))
}

// link pushes site i onto its cell's chain.
func (g *SiteGrid) link(i int32) {
	ix, iy := g.cellOf(g.sites[i].Loc)
	c := iy*g.nx + ix
	g.next = append(g.next, g.head[c])
	g.head[c] = i
}

// regrid rebuilds the index over the bounding box of the sites.
func (g *SiteGrid) regrid() {
	n := len(g.sites)
	g.regridAt = max(2*n, minRegrid)
	g.gen++
	box := siteBounds(g.sites)
	g.nx, g.ny, g.cs = 1, 1, 1
	if n >= minRegrid {
		w, h := box.Max.X-box.Min.X, box.Max.Y-box.Min.Y
		cells := float64(n) / sitesPerCell
		cs := max(math.Sqrt(w*h/cells), max(w, h)/cells)
		if cs > 0 && !math.IsInf(cs, 0) {
			g.cs = cs
			g.nx = int(math.Ceil(w/cs)) + 1
			g.ny = int(math.Ceil(h/cs)) + 1
		}
	}
	g.minX, g.minY, g.inv = box.Min.X, box.Min.Y, 1/g.cs
	g.head = g.head[:0]
	for range g.nx * g.ny {
		g.head = append(g.head, -1)
	}
	g.next = g.next[:0]
	for i := range g.sites {
		g.link(int32(i))
	}
}

// siteBounds returns the bounding box of the sites. A non-finite
// coordinate makes it non-finite, and the grid then one cell.
func siteBounds(sites []Site) geom.Rect {
	r := geom.Rect{Min: sites[0].Loc, Max: sites[0].Loc}
	for _, s := range sites[1:] {
		r.Min.X, r.Min.Y = min(r.Min.X, s.Loc.X), min(r.Min.Y, s.Loc.Y)
		r.Max.X, r.Max.Y = max(r.Max.X, s.Loc.X), max(r.Max.Y, s.Loc.Y)
	}
	return r
}

// cellOf returns the cell holding p, clamped to the grid (a NaN
// coordinate clamps to 0).
func (g *SiteGrid) cellOf(p geom.Point) (ix, iy int) {
	return clampCell((p.X-g.minX)*g.inv, g.nx), clampCell((p.Y-g.minY)*g.inv, g.ny)
}

func clampCell(f float64, n int) int {
	if !(f >= 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// slack is the rounding allowance of a search around p: the distance
// by which a cell boundary, as the search computes it, may sit off the
// boundary the sites were binned by.
func (g *SiteGrid) slack(p geom.Point) float64 {
	return 1e-9 * (math.Abs(g.minX) + math.Abs(g.minY) + math.Abs(p.X) + math.Abs(p.Y) +
		float64(g.nx+g.ny+1)*g.cs)
}

// ringBound returns the distance from p to the nearest boundary of the
// block of cells [x0, x1] × [y0, y1] that has cells beyond it, or +Inf
// when no cell lies outside the block: less slack, a lower bound on
// the distance from p to every site outside the block. A site binned
// into an edge cell from beyond the grid lies beyond that cell's inner
// boundaries too, so clamping keeps the bound.
func (g *SiteGrid) ringBound(p geom.Point, x0, x1, y0, y1 int) float64 {
	gap := math.Inf(1)
	if x0 > 0 {
		gap = min(gap, p.X-(g.minX+float64(x0)*g.cs))
	}
	if x1 < g.nx-1 {
		gap = min(gap, g.minX+float64(x1+1)*g.cs-p.X)
	}
	if y0 > 0 {
		gap = min(gap, p.Y-(g.minY+float64(y0)*g.cs))
	}
	if y1 < g.ny-1 {
		gap = min(gap, g.minY+float64(y1+1)*g.cs-p.Y)
	}
	return gap
}

// CountCloser returns how many sites, other than those keyed
// excludeKey, are strictly closer to p than target is: the count of
// sites s with p.Dist2(s.Loc) < p.Dist2(target), which it reads from
// the cells the disk of that radius around p covers (or from every
// site, when the disk covers more cells than there are sites).
func (g *SiteGrid) CountCloser(p, target geom.Point, excludeKey int64) int {
	dt := p.Dist2(target)
	r := math.Sqrt(dt)
	r += 1e-9*r + g.slack(p)
	x0, y0 := g.cellOf(geom.Pt(p.X-r, p.Y-r))
	x1, y1 := g.cellOf(geom.Pt(p.X+r, p.Y+r))
	n := 0
	if g.head == nil || (x1-x0+1)*(y1-y0+1) > len(g.sites) {
		for _, s := range g.sites {
			if s.Key != excludeKey && p.Dist2(s.Loc) < dt {
				n++
			}
		}
		return n
	}
	for iy := y0; iy <= y1; iy++ {
		for ix := x0; ix <= x1; ix++ {
			for j := g.head[iy*g.nx+ix]; j >= 0; j = g.next[j] {
				if s := &g.sites[j]; s.Key != excludeKey && p.Dist2(s.Loc) < dt {
					n++
				}
			}
		}
	}
	return n
}
