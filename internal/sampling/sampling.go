// Package sampling provides the query-location sampling distributions
// used by the aggregate estimators: the uniform distribution over the
// bounding region and piecewise-constant weighted grids built from
// external knowledge such as population density (§5.2 of the paper).
//
// A sampler must expose its density analytically, because the
// estimators weight each sampled tuple t by 1/p(t) with
// p(t) = ∫_{V(t)} f(q) dq — the integral of the sampling density over
// the tuple's (top-k) Voronoi cell. For a piecewise-constant grid this
// integral is computed exactly by clipping the cell's convex faces
// against the grid cells, so weighted sampling preserves the
// estimators' unbiasedness no matter how inaccurate the external
// knowledge is (the paper's key observation in §5.2).
package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
)

// Sampler is a probability distribution over a bounding region from
// which query locations are drawn.
type Sampler interface {
	// Bounds returns the support of the distribution.
	Bounds() geom.Rect
	// Sample draws one location.
	Sample(rng *rand.Rand) geom.Point
	// Density returns the probability density at p; it integrates to 1
	// over Bounds and is 0 outside.
	Density(p geom.Point) float64
	// IntegratePolygon returns the probability mass of the convex
	// polygon ∫_poly Density.
	IntegratePolygon(poly geom.Polygon) float64
	// MaxDensityInRect returns an upper bound on Density over the
	// rectangle, used for rejection sampling restricted to a region.
	MaxDensityInRect(r geom.Rect) float64
}

// Uniform is the uniform distribution over a rectangle.
type Uniform struct {
	rect geom.Rect
}

// NewUniform returns a uniform sampler over rect.
func NewUniform(rect geom.Rect) *Uniform {
	if rect.Area() <= 0 {
		panic("sampling: degenerate bounds")
	}
	return &Uniform{rect: rect}
}

// Bounds implements Sampler.
func (u *Uniform) Bounds() geom.Rect { return u.rect }

// Sample implements Sampler.
func (u *Uniform) Sample(rng *rand.Rand) geom.Point {
	return geom.RandomInRect(rng, u.rect)
}

// Density implements Sampler.
func (u *Uniform) Density(p geom.Point) float64 {
	if !u.rect.Contains(p) {
		return 0
	}
	return 1 / u.rect.Area()
}

// IntegratePolygon implements Sampler. The polygon is assumed to lie
// within the bounds (estimator regions always do).
func (u *Uniform) IntegratePolygon(poly geom.Polygon) float64 {
	return poly.Area() / u.rect.Area()
}

// MaxDensityInRect implements Sampler.
func (u *Uniform) MaxDensityInRect(geom.Rect) float64 { return 1 / u.rect.Area() }

// Grid is a piecewise-constant density over a W×H lattice of equal
// rectangular cells covering the bounds. Cell weights are normalized
// to sum to 1; the density inside cell c is weight(c)/cellArea.
type Grid struct {
	rect     geom.Rect
	w, h     int
	weights  []float64 // row-major, normalized to sum 1
	cum      []float64 // cumulative weights for sampling
	cellArea float64
}

// NewGrid builds a weighted grid sampler. weights must have w·h
// non-negative entries with a positive sum; they are copied and
// normalized.
func NewGrid(rect geom.Rect, w, h int, weights []float64) *Grid {
	if w < 1 || h < 1 {
		panic("sampling: grid dimensions must be ≥ 1")
	}
	if len(weights) != w*h {
		panic(fmt.Sprintf("sampling: want %d weights, got %d", w*h, len(weights)))
	}
	var sum float64
	for _, x := range weights {
		if x < 0 || math.IsNaN(x) {
			panic("sampling: negative or NaN weight")
		}
		sum += x
	}
	if sum <= 0 {
		panic("sampling: all-zero weights")
	}
	g := &Grid{
		rect:     rect,
		w:        w,
		h:        h,
		weights:  make([]float64, len(weights)),
		cum:      make([]float64, len(weights)),
		cellArea: rect.Area() / float64(w*h),
	}
	run := 0.0
	for i, x := range weights {
		g.weights[i] = x / sum
		run += g.weights[i]
		g.cum[i] = run
	}
	return g
}

// GridFromPoints builds a grid density from observed point locations
// (our census substitute): per-cell counts with add-alpha smoothing so
// that every cell retains positive probability — a requirement for the
// estimators, since a zero-density area containing tuples would break
// the positive-selection-probability precondition of unbiasedness.
func GridFromPoints(rect geom.Rect, w, h int, pts []geom.Point, alpha float64) *Grid {
	if alpha <= 0 {
		alpha = 1
	}
	weights := make([]float64, w*h)
	for i := range weights {
		weights[i] = alpha
	}
	for _, p := range pts {
		if !rect.Contains(p) {
			continue
		}
		cx, cy := cellOf(rect, w, h, p)
		weights[cy*w+cx]++
	}
	return NewGrid(rect, w, h, weights)
}

// cellOf maps p to grid coordinates, clamped to the lattice.
func cellOf(rect geom.Rect, w, h int, p geom.Point) (int, int) {
	cx := int((p.X - rect.Min.X) / rect.Width() * float64(w))
	cy := int((p.Y - rect.Min.Y) / rect.Height() * float64(h))
	if cx < 0 {
		cx = 0
	} else if cx >= w {
		cx = w - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= h {
		cy = h - 1
	}
	return cx, cy
}

// Noisy returns a copy of the grid whose weights have been perturbed
// by multiplicative lognormal noise with the given sigma — used to
// demonstrate that inaccurate external knowledge degrades efficiency
// but never unbiasedness (§5.2).
func (g *Grid) Noisy(rng *rand.Rand, sigma float64) *Grid {
	weights := make([]float64, len(g.weights))
	for i, x := range g.weights {
		weights[i] = x * math.Exp(rng.NormFloat64()*sigma)
	}
	return NewGrid(g.rect, g.w, g.h, weights)
}

// Bounds implements Sampler.
func (g *Grid) Bounds() geom.Rect { return g.rect }

// Sample implements Sampler: choose a cell by weight, then a point
// uniformly inside it.
func (g *Grid) Sample(rng *rand.Rand) geom.Point {
	u := rng.Float64()
	idx := sort.SearchFloat64s(g.cum, u)
	if idx >= len(g.cum) {
		idx = len(g.cum) - 1
	}
	cx := idx % g.w
	cy := idx / g.w
	cw := g.rect.Width() / float64(g.w)
	ch := g.rect.Height() / float64(g.h)
	return geom.Pt(
		g.rect.Min.X+(float64(cx)+rng.Float64())*cw,
		g.rect.Min.Y+(float64(cy)+rng.Float64())*ch,
	)
}

// Density implements Sampler.
func (g *Grid) Density(p geom.Point) float64 {
	if !g.rect.Contains(p) {
		return 0
	}
	cx, cy := cellOf(g.rect, g.w, g.h, p)
	return g.weights[cy*g.w+cx] / g.cellArea
}

// IntegratePolygon implements Sampler: the polygon is clipped against
// every grid cell it overlaps and each piece contributes
// weight(cell)·area(piece)/cellArea.
func (g *Grid) IntegratePolygon(poly geom.Polygon) float64 {
	if len(poly) < 3 {
		return 0
	}
	bb := poly.BoundingRect()
	cw := g.rect.Width() / float64(g.w)
	ch := g.rect.Height() / float64(g.h)
	x0 := int(math.Floor((bb.Min.X - g.rect.Min.X) / cw))
	x1 := int(math.Ceil((bb.Max.X - g.rect.Min.X) / cw))
	y0 := int(math.Floor((bb.Min.Y - g.rect.Min.Y) / ch))
	y1 := int(math.Ceil((bb.Max.Y - g.rect.Min.Y) / ch))
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > g.w {
		x1 = g.w
	}
	if y1 > g.h {
		y1 = g.h
	}
	var mass float64
	for cy := y0; cy < y1; cy++ {
		// Clip the polygon to the horizontal slab once per row.
		yLo := g.rect.Min.Y + float64(cy)*ch
		yHi := yLo + ch
		row := poly.Clip(geom.HalfPlane{Line: geom.Line{A: 0, B: -1, C: -yLo}}) // y ≥ yLo
		row = row.Clip(geom.HalfPlane{Line: geom.Line{A: 0, B: 1, C: yHi}})     // y ≤ yHi
		if len(row) < 3 {
			continue
		}
		for cx := x0; cx < x1; cx++ {
			xLo := g.rect.Min.X + float64(cx)*cw
			xHi := xLo + cw
			piece := row.Clip(geom.HalfPlane{Line: geom.Line{A: -1, B: 0, C: -xLo}}) // x ≥ xLo
			piece = piece.Clip(geom.HalfPlane{Line: geom.Line{A: 1, B: 0, C: xHi}})  // x ≤ xHi
			if len(piece) < 3 {
				continue
			}
			mass += g.weights[cy*g.w+cx] * piece.Area() / g.cellArea
		}
	}
	return mass
}

// MaxDensityInRect implements Sampler: the maximum cell density among
// grid cells overlapping r.
func (g *Grid) MaxDensityInRect(r geom.Rect) float64 {
	cw := g.rect.Width() / float64(g.w)
	ch := g.rect.Height() / float64(g.h)
	x0 := int(math.Floor((r.Min.X - g.rect.Min.X) / cw))
	x1 := int(math.Ceil((r.Max.X - g.rect.Min.X) / cw))
	y0 := int(math.Floor((r.Min.Y - g.rect.Min.Y) / ch))
	y1 := int(math.Ceil((r.Max.Y - g.rect.Min.Y) / ch))
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > g.w {
		x1 = g.w
	}
	if y1 > g.h {
		y1 = g.h
	}
	var m float64
	for cy := y0; cy < y1; cy++ {
		for cx := x0; cx < x1; cx++ {
			if w := g.weights[cy*g.w+cx]; w > m {
				m = w
			}
		}
	}
	return m / g.cellArea
}
