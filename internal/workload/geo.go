package workload

// Geodesic city scenarios: coordinates are longitude/latitude degrees
// (X = lon, Y = lat) and the scenario is meant to be ranked under the
// Haversine metric — distances in km along great circles. The same
// cluster-mix generator runs in degree space; the slight area
// distortion of sampling degrees instead of surface area is irrelevant
// to the synthetic skew (clusters dominate) and keeps generation
// deterministic and metric-independent, so the same seed produces the
// same city under either density law.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// geoUSBounds covers the continental US in lon/lat degrees.
var geoUSBounds = geom.NewRect(geom.Pt(-125, 24), geom.Pt(-66, 49))

// geoChinaBounds covers China in lon/lat degrees.
var geoChinaBounds = geom.NewRect(geom.Pt(73, 18), geom.Pt(135, 53))

// Cities generates a generic POI population over bounds under the
// given metric and density law — the scenario behind lbsgen's
// geodesic cities and its -density flag. Coordinates are degrees when
// metric is Haversine, km in the plane otherwise; the generator
// itself is metric-independent.
func Cities(name string, bounds geom.Rect, metric geo.Metric, density Density, n, clusters int, seed int64) *Scenario {
	pts := ClusterMix(ClusterMixConfig{
		Bounds: bounds, N: n, Clusters: clusters,
		UniformFrac: 0.15, Density: density, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	tuples := make([]lbs.Tuple, n)
	for i, p := range pts {
		rating := 3.8 + rng.NormFloat64()*0.7
		rating = math.Min(5, math.Max(1, rating))
		tuples[i] = lbs.Tuple{
			ID:       int64(i + 1),
			Loc:      p,
			Name:     fmt.Sprintf("POI %d", i+1),
			Category: "poi",
			Attrs:    map[string]float64{"rating": math.Round(rating*10) / 10},
		}
	}
	return &Scenario{
		Name:   name,
		Bounds: bounds,
		Metric: metric,
		DB:     lbs.NewDatabase(bounds, tuples),
		Grid:   buildGrid(bounds, pts),
	}
}

// GeoUS generates n POIs over the continental US in lon/lat degrees,
// ranked under Haversine.
func GeoUS(n int, seed int64, density Density) *Scenario {
	return Cities("geo-us", geoUSBounds, geo.Haversine, density, n, 40, seed)
}

// GeoChina generates n POIs over China in lon/lat degrees, ranked
// under Haversine.
func GeoChina(n int, seed int64, density Density) *Scenario {
	return Cities("geo-china", geoChinaBounds, geo.Haversine, density, n, 60, seed)
}

// Project materializes the Euclidean twin of a geodesic scenario on
// the equirectangular plane centered at the scenario's midpoint
// latitude: every tuple location (and the bounds) maps through
// geo.Projection.Forward into kilometers, and the result ranks under
// geo.Euclidean. This is the documented bridge for planar ground
// truth — Voronoi/cell computations run on the projected plane, and
// geo.Projection.MaxDistortion bounds how far its distances stray
// from the great circles the geodesic service ranks by.
func (s *Scenario) Project() (*Scenario, geo.Projection) {
	proj := geo.NewProjection((s.Bounds.Min.Y + s.Bounds.Max.Y) / 2)
	tuples := make([]lbs.Tuple, s.DB.Len())
	pts := make([]geom.Point, s.DB.Len())
	for i := range tuples {
		t := *s.DB.Tuple(i)
		t.Loc = proj.Forward(t.Loc)
		tuples[i] = t
		pts[i] = t.Loc
	}
	bounds := proj.ForwardRect(s.Bounds)
	return &Scenario{
		Name:   s.Name + "-projected",
		Bounds: bounds,
		Metric: geo.Euclidean,
		DB:     lbs.NewDatabase(bounds, tuples),
		Grid:   buildGrid(bounds, pts),
	}, proj
}
