// Package geo makes the distance metric a first-class seam: every
// layer that ranks, prunes or invalidates by distance (kdtree, lbs,
// shard, the answer cache, the store) takes a Metric instead of
// hard-coding flat-Euclidean math, so city-scale scenarios can run on
// real lat/lon coordinates without pretending the earth is flat.
//
// Two metrics are provided:
//
//   - Euclidean: the planar default. Its Dist is exactly
//     math.Sqrt(p.Dist2(q)) — the k-d tree's ranking pipeline and the
//     merge key of lbs.RankDist — so code refactored onto the seam
//     stays bit-identical to the pre-metric behavior.
//   - Haversine: great-circle distance in kilometers over points
//     interpreted as degrees (X = longitude, Y = latitude). Latitudes
//     are clamped to [−90°, 90°] before evaluation, which makes every
//     pruning bound in this package valid for arbitrary query points;
//     longitudes wrap modulo 360° through the formula itself.
//
// # Domain assumptions (Haversine)
//
// Geodesic databases must keep their data inside a longitude window
// narrower than 180° and away from the poles (the synthetic geo
// scenarios span ~60° of longitude at mid latitudes). The search
// bounds remain *correct* outside that regime — they degrade to
// "never prune" rather than to wrong answers — but pruning
// effectiveness, and therefore performance, assumes it.
//
// # Local projection
//
// Projection is the documented planar approximation for cell
// geometry: an equirectangular projection at a reference latitude
// (x′ = R·cos φ₀·λ, y′ = R·φ). Voronoi/cell ground truth runs on this
// plane; MaxDistortion measures the worst-case relative distance
// error over a region so the approximation error is a number, not a
// hope (see the README error-bound table).
package geo

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// EarthRadiusKm is the mean earth radius (IUGG), in kilometers; all
// Haversine distances are in these units.
const EarthRadiusKm = 6371.0088

// KmPerDeg is the length of one degree of latitude (or of longitude
// at the equator): EarthRadiusKm·π/180 ≈ 111.195 km.
const KmPerDeg = EarthRadiusKm * math.Pi / 180

const degToRad = math.Pi / 180

// Metric selects the distance function of a service stack. The zero
// value is Euclidean, so every existing construction site keeps its
// exact pre-metric behavior by default.
type Metric uint8

const (
	// Euclidean is planar distance: Dist(p, q) = Sqrt(p.Dist2(q)).
	Euclidean Metric = iota
	// Haversine is great-circle distance in km over (lon°, lat°)
	// points.
	Haversine
)

// String returns the wire name of the metric ("euclidean",
// "haversine").
func (m Metric) String() string {
	if m == Haversine {
		return "haversine"
	}
	return "euclidean"
}

// ParseMetric parses a wire name. The empty string is Euclidean (the
// default everywhere); "geodesic" is accepted as an alias for
// "haversine".
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "", "euclidean":
		return Euclidean, nil
	case "haversine", "geodesic":
		return Haversine, nil
	}
	return Euclidean, fmt.Errorf("geo: unknown metric %q (want euclidean|haversine)", s)
}

// clampLat clamps a latitude to [−90°, 90°]. Haversine evaluates the
// clamped coordinates, which keeps it a well-defined (pseudo-)metric
// for any plane point and keeps every pruning bound below valid.
func clampLat(deg float64) float64 {
	if deg > 90 {
		return 90
	}
	if deg < -90 {
		return -90
	}
	return deg
}

// Dist returns the distance from p to q under the metric. Euclidean
// is exactly math.Sqrt(p.Dist2(q)) — bit-identical to the k-d tree's
// ranking pipeline and to lbs.RankDist.
func (m Metric) Dist(p, q geom.Point) float64 {
	if m == Haversine {
		return NewHaversineQuery(p).Dist(q)
	}
	return math.Sqrt(p.Dist2(q))
}

// HaversineQuery caches the query-side trigonometry of a Haversine
// evaluation so search loops pay one Sincos per query instead of per
// candidate. Dist(b) computes the *canonical* Haversine expression —
// HaversineDist and Metric.Dist delegate to it — so every layer
// (tree ranking, wire records, federated merge) produces bit-identical
// distances for the same pair of points.
type HaversineQuery struct {
	lam, phi, cosPhi float64
}

// NewHaversineQuery prepares the query point q (lon°, lat°).
func NewHaversineQuery(q geom.Point) HaversineQuery {
	phi := clampLat(q.Y) * degToRad
	return HaversineQuery{lam: q.X * degToRad, phi: phi, cosPhi: math.Cos(phi)}
}

// CosLat returns cos of the query's clamped latitude (the query-side
// factor of the longitude pruning bound).
func (h HaversineQuery) CosLat() float64 { return h.cosPhi }

// Dist returns the great-circle distance from the query to b, in km.
func (h HaversineQuery) Dist(b geom.Point) float64 {
	phi2 := clampLat(b.Y) * degToRad
	sp := math.Sin((phi2 - h.phi) / 2)
	sl := math.Sin((b.X*degToRad - h.lam) / 2)
	hav := sp*sp + h.cosPhi*math.Cos(phi2)*(sl*sl)
	if hav > 1 {
		hav = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(hav))
}

// HaversineDist is the great-circle distance between two (lon°, lat°)
// points in km — the one canonical evaluation (see HaversineQuery).
func HaversineDist(a, b geom.Point) float64 {
	return NewHaversineQuery(a).Dist(b)
}

// boundSlack is what every Haversine lower bound gives up, relative
// and in km. A bound is evaluated by another expression than the
// canonical distance; where the two agree exactly, rounding can put
// the bound an ulp or two above the distance: in about half the pairs
// on one meridian, and about 1 in 10 000 on one parallel. The slack
// keeps each bound a lower bound in floating point, so the layers that
// prune or invalidate by one compare it with canonical distances as
// they are.
const boundSlack = 1e-9

// slack gives up boundSlack from a lower bound, never going below 0.
func slack(lb float64) float64 { return max(lb-lb*boundSlack-boundSlack, 0) }

// LatSepLB lower-bounds the Haversine distance between any two points
// whose (clamped) latitudes differ by at least |qLat − lat| degrees:
// hav ≥ sin²(Δφ/2), so d ≥ 2R·asin(|sin(Δφ/2)|) = R·|Δφ| for clamped
// latitudes (|Δφ| ≤ 180°), less boundSlack. Used as the
// splitting-plane bound on the latitude axis.
func LatSepLB(qLat, lat float64) float64 {
	return slack(EarthRadiusKm * math.Abs(clampLat(qLat)-clampLat(lat)) * degToRad)
}

// LonSepDeg returns the circular separation (degrees, in [0, 180])
// between longitude q and the longitude interval [lo, hi]: 0 when q
// falls inside the interval modulo 360°, else the shorter arc to the
// nearer endpoint.
func LonSepDeg(q, lo, hi float64) float64 {
	if hi-lo >= 360 {
		return 0
	}
	w := math.Mod(q-lo, 360)
	if w < 0 {
		w += 360
	}
	// w is q's offset into [lo, lo+360).
	if w <= hi-lo {
		return 0
	}
	return math.Min(w-(hi-lo), 360-w)
}

// LonSepLB lower-bounds the Haversine distance from a query (with
// cosQLat = cos of its clamped latitude) to any point whose longitude
// lies in [loLon, hiLon] and whose clamped latitude satisfies
// cos φ ≥ cosLatFloor: hav ≥ cos φ_q·cos φ·sin²(Δλ/2) and
// asin(x) ≥ x, so d ≥ 2R·√(cos φ_q·cosLatFloor)·sin(sep/2), less
// boundSlack. A non-positive cosine product yields 0 (never prunes) —
// the graceful degradation for polar or out-of-domain data.
func LonSepLB(qLon, cosQLat, loLon, hiLon, cosLatFloor float64) float64 {
	c := cosQLat * cosLatFloor
	if c <= 0 {
		return 0
	}
	sep := LonSepDeg(qLon, loLon, hiLon)
	if sep <= 0 {
		return 0
	}
	return slack(2 * EarthRadiusKm * math.Sqrt(c) * math.Sin(sep/2*degToRad))
}

// CosLatFloor returns the minimum of cos over the clamped latitude
// interval [latMin, latMax] — the data-side factor of LonSepLB. For a
// k-d tree it is called with ±maxAbsLat; for a shard region with the
// region's latitude extent.
func CosLatFloor(latMin, latMax float64) float64 {
	a := math.Max(math.Abs(clampLat(latMin)), math.Abs(clampLat(latMax)))
	return math.Cos(a * degToRad)
}

// RectMinDist lower-bounds the distance from q to every point of
// rect. Euclidean is exact — math.Sqrt(q.Dist2(rect.Clamp(q))), the
// same Dist2+Sqrt pipeline the k-d tree ranks with, so monotonicity
// arguments over pruning decisions carry over unchanged. Haversine
// returns the larger of the latitude-separation and
// longitude-separation bounds; it is conservative (a true lower
// bound, possibly loose), which is the correct direction for
// scatter-gather pruning: a shard is skipped only when no tuple in
// its region can beat the bound.
func (m Metric) RectMinDist(q geom.Point, rect geom.Rect) float64 {
	if m != Haversine {
		return math.Sqrt(q.Dist2(rect.Clamp(q)))
	}
	latLB := 0.0
	qLat := clampLat(q.Y)
	if qLat < clampLat(rect.Min.Y) {
		latLB = LatSepLB(qLat, rect.Min.Y)
	} else if qLat > clampLat(rect.Max.Y) {
		latLB = LatSepLB(qLat, rect.Max.Y)
	}
	cosQ := math.Cos(qLat * degToRad)
	lonLB := LonSepLB(q.X, cosQ, rect.Min.X, rect.Max.X, CosLatFloor(rect.Min.Y, rect.Max.Y))
	return math.Max(latLB, lonLB)
}

// Projection is the equirectangular local projection at a reference
// latitude φ₀: Forward maps (lon°, lat°) to kilometers on a plane via
// x′ = R·cos φ₀·λ_rad, y′ = R·φ_rad. It is the documented planar
// approximation for cell geometry in geodesic mode — Voronoi/cell
// ground truth runs on the projected plane, and MaxDistortion
// measures how far its planar distances stray from true great-circle
// distances over a given region.
type Projection struct {
	cosRef float64
}

// NewProjection returns the equirectangular projection centered at
// refLat degrees (typically the midpoint latitude of the region of
// interest).
func NewProjection(refLat float64) Projection {
	return Projection{cosRef: math.Cos(clampLat(refLat) * degToRad)}
}

// Forward maps a (lon°, lat°) point to the projected km plane.
func (p Projection) Forward(pt geom.Point) geom.Point {
	return geom.Pt(EarthRadiusKm*p.cosRef*pt.X*degToRad, EarthRadiusKm*pt.Y*degToRad)
}

// Inverse maps a projected km-plane point back to (lon°, lat°).
func (p Projection) Inverse(pt geom.Point) geom.Point {
	return geom.Pt(pt.X/(EarthRadiusKm*p.cosRef*degToRad), pt.Y/(EarthRadiusKm*degToRad))
}

// ForwardRect maps a degree-space rectangle to the projected plane.
func (p Projection) ForwardRect(r geom.Rect) geom.Rect {
	return geom.Rect{Min: p.Forward(r.Min), Max: p.Forward(r.Max)}
}

// MaxDistortion measures the worst relative error
// |planar − haversine| / haversine over `samples` deterministic
// point pairs drawn inside region (degree space) whose true distance
// is positive. It is how the README's projected-plane error-bound
// table is produced: the approximation error of running cell geometry
// on the projection is measured, not assumed.
func (p Projection) MaxDistortion(region geom.Rect, samples int, seed int64) float64 {
	// A tiny deterministic xorshift generator keeps this free of
	// math/rand churn across Go versions.
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state>>11) / float64(1<<53)
	}
	randPt := func() geom.Point {
		return geom.Pt(
			region.Min.X+next()*(region.Max.X-region.Min.X),
			region.Min.Y+next()*(region.Max.Y-region.Min.Y),
		)
	}
	worst := 0.0
	for i := 0; i < samples; i++ {
		a, b := randPt(), randPt()
		truth := HaversineDist(a, b)
		if truth < 1e-9 {
			continue
		}
		planar := math.Sqrt(p.Forward(a).Dist2(p.Forward(b)))
		if rel := math.Abs(planar-truth) / truth; rel > worst {
			worst = rel
		}
	}
	return worst
}
