// Package workload generates the synthetic datasets that stand in for
// the paper's evaluation data: the USA portion of OpenStreetMap
// enriched with Google-Maps ratings and US-Census enrollments, the
// Starbucks store set of the Google Places demonstration, and the
// WeChat / Sina Weibo user populations.
//
// The substitution preserves what the evaluation actually depends on:
//
//   - spatial skew — POIs and users concentrate in urban clusters with
//     a thin rural background, producing the heavy-tailed Voronoi cell
//     size distribution of Figure 11 (from sub-km² urban cells to
//     enormous rural ones);
//   - attribute distributions — ratings, enrollments, review counts
//     and gender mixes with realistic shapes;
//   - known ground truth — every generated database can be aggregated
//     exactly, enabling relative-error measurement that the paper
//     could only approximate online.
//
// All generators are deterministic in their seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/sampling"
)

// Density selects the radial law cluster points spread by.
type Density string

const (
	// DensityGauss places cluster points with Gaussian (light-tailed)
	// radial spread — the default, and the historical behavior.
	DensityGauss Density = "gauss"
	// DensityZipf places cluster points with a heavy-tailed power-law
	// (Pareto) radial spread: very dense urban cores with long suburban
	// tails, exaggerating the Voronoi cell-size skew of Figure 11.
	DensityZipf Density = "zipf"
)

// ParseDensity maps a flag value to a Density ("" = gauss).
func ParseDensity(s string) (Density, error) {
	switch Density(s) {
	case "", DensityGauss:
		return DensityGauss, nil
	case DensityZipf:
		return DensityZipf, nil
	}
	return "", fmt.Errorf("workload: unknown density %q (want gauss|zipf)", s)
}

// ClusterMixConfig describes an urban/rural mixture: tuples are placed
// in Gaussian clusters ("cities") with Zipf-distributed sizes, plus a
// uniform rural background.
type ClusterMixConfig struct {
	// Bounds is the coverage region.
	Bounds geom.Rect
	// N is the number of tuples to place.
	N int
	// Clusters is the number of Gaussian city clusters (≥ 1).
	Clusters int
	// StdFrac is each cluster's standard deviation as a fraction of
	// the shorter bounds dimension (default 0.02).
	StdFrac float64
	// UniformFrac is the fraction of tuples placed uniformly at random
	// over the whole region (the rural background, default 0.15).
	UniformFrac float64
	// ZipfS is the Zipf exponent for cluster sizes (default 1.0:
	// city sizes follow a power law).
	ZipfS float64
	// Density is the radial law points spread around their cluster
	// center by (default DensityGauss).
	Density Density
	// Seed drives all randomness.
	Seed int64
}

func (c *ClusterMixConfig) fill() {
	if c.Clusters < 1 {
		c.Clusters = 1
	}
	if c.StdFrac <= 0 {
		c.StdFrac = 0.02
	}
	if c.UniformFrac < 0 || c.UniformFrac > 1 {
		c.UniformFrac = 0.15
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 1.0
	}
	if c.Density == "" {
		c.Density = DensityGauss
	}
}

// ClusterMix generates N locations from the configured mixture. The
// same seed always yields the same locations.
func ClusterMix(cfg ClusterMixConfig) []geom.Point {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	// City centers uniform over a slightly shrunk region so cluster
	// mass stays mostly inside the bounds.
	inner := geom.NewRect(
		cfg.Bounds.Min.Add(geom.Pt(cfg.Bounds.Width()*0.05, cfg.Bounds.Height()*0.05)),
		cfg.Bounds.Max.Sub(geom.Pt(cfg.Bounds.Width()*0.05, cfg.Bounds.Height()*0.05)),
	)
	centers := make([]geom.Point, cfg.Clusters)
	for i := range centers {
		centers[i] = geom.RandomInRect(rng, inner)
	}
	// Zipf weights over clusters.
	weights := make([]float64, cfg.Clusters)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), cfg.ZipfS)
		wsum += weights[i]
	}
	std := math.Min(cfg.Bounds.Width(), cfg.Bounds.Height()) * cfg.StdFrac
	pts := make([]geom.Point, 0, cfg.N)
	for len(pts) < cfg.N {
		var p geom.Point
		if rng.Float64() < cfg.UniformFrac {
			p = geom.RandomInRect(rng, cfg.Bounds)
		} else {
			// Pick a cluster by weight.
			u := rng.Float64() * wsum
			ci := 0
			for ; ci < cfg.Clusters-1; ci++ {
				if u < weights[ci] {
					break
				}
				u -= weights[ci]
			}
			if cfg.Density == DensityZipf {
				// Heavy-tailed radial offset: Pareto II with tail index 1.5
				// (infinite variance), isotropic direction. The scale is
				// chosen so the median offset roughly matches the Gaussian's,
				// keeping urban cores comparable while the tails stretch far
				// beyond anything Gaussian clusters produce.
				u := 1 - rng.Float64() // (0, 1]
				r := std * 1.15 * (math.Pow(u, -1/1.5) - 1)
				theta := rng.Float64() * 2 * math.Pi
				p = geom.Pt(
					centers[ci].X+r*math.Cos(theta),
					centers[ci].Y+r*math.Sin(theta),
				)
			} else {
				p = geom.Pt(
					centers[ci].X+rng.NormFloat64()*std,
					centers[ci].Y+rng.NormFloat64()*std,
				)
			}
		}
		if cfg.Bounds.Contains(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// Scenario bundles a generated database with the external-knowledge
// density grid the weighted sampler uses (the census substitute) and
// the ground-truth facts the experiments compare against.
type Scenario struct {
	Name   string
	Bounds geom.Rect
	// Metric is the distance metric the scenario's coordinates are laid
	// out for: the planar scenarios (km coordinates) are Euclidean, the
	// Geo* scenarios (lon/lat degrees) Haversine. Services, routers,
	// caches and packs built over the database must use it.
	Metric geo.Metric
	DB     *lbs.Database
	// Grid is a density estimate correlated with tuple density — the
	// stand-in for US-Census population data (§5.2). It is derived
	// from the true locations with smoothing, mimicking knowledge that
	// is correlated but not exact.
	Grid *sampling.Grid
}

// Uniform returns the uniform sampler over the scenario bounds.
func (s *Scenario) Uniform() *sampling.Uniform { return sampling.NewUniform(s.Bounds) }

// usBounds is the synthetic "continental US" plane: 4000×2500 km.
var usBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(4000, 2500))

// chinaBounds is the synthetic "China" plane: 3500×3000 km.
var chinaBounds = geom.NewRect(geom.Pt(0, 0), geom.Pt(3500, 3000))

// MetroBox returns a metro-sized (side × side) box centered on the
// densest area of the database — the synthetic analogue of picking a
// real metro such as Austin, TX for sub-region aggregates. The box is
// clamped inside the database bounds.
func MetroBox(db *lbs.Database, side float64) geom.Rect {
	bounds := db.Bounds()
	const g = 24
	var counts [g][g]int
	for i := 0; i < db.Len(); i++ {
		p := db.Tuple(i).Loc
		cx := int((p.X - bounds.Min.X) / bounds.Width() * g)
		cy := int((p.Y - bounds.Min.Y) / bounds.Height() * g)
		if cx >= g {
			cx = g - 1
		}
		if cy >= g {
			cy = g - 1
		}
		counts[cy][cx]++
	}
	bestX, bestY, best := 0, 0, -1
	for cy := 0; cy < g; cy++ {
		for cx := 0; cx < g; cx++ {
			if counts[cy][cx] > best {
				best = counts[cy][cx]
				bestX, bestY = cx, cy
			}
		}
	}
	center := geom.Pt(
		bounds.Min.X+(float64(bestX)+0.5)*bounds.Width()/g,
		bounds.Min.Y+(float64(bestY)+0.5)*bounds.Height()/g,
	)
	half := side / 2
	min := geom.Pt(
		math.Min(math.Max(center.X-half, bounds.Min.X), bounds.Max.X-side),
		math.Min(math.Max(center.Y-half, bounds.Min.Y), bounds.Max.Y-side),
	)
	return geom.NewRect(min, min.Add(geom.Pt(side, side)))
}

// buildGrid derives the census-substitute density grid from a point
// set at 40×25 resolution with smoothing.
func buildGrid(bounds geom.Rect, pts []geom.Point) *sampling.Grid {
	return sampling.GridFromPoints(bounds, 40, 25, pts, 2)
}

// USASchools generates n school POIs over the US plane with
// census-like enrollment numbers (lognormal, roughly 50–3000
// students). Used by Figures 13, 14, 16, 18, 19, 20.
func USASchools(n int, seed int64) *Scenario {
	pts := ClusterMix(ClusterMixConfig{
		Bounds: usBounds, N: n, Clusters: 60, UniformFrac: 0.2, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	tuples := make([]lbs.Tuple, n)
	for i, p := range pts {
		enroll := math.Exp(6.0 + rng.NormFloat64()*0.8) // median ≈ 400
		if enroll < 20 {
			enroll = 20
		}
		tuples[i] = lbs.Tuple{
			ID:       int64(i + 1),
			Loc:      p,
			Name:     fmt.Sprintf("School %d", i+1),
			Category: "school",
			Attrs:    map[string]float64{"enrollment": math.Round(enroll)},
		}
	}
	return &Scenario{
		Name:   "usa-schools",
		Bounds: usBounds,
		DB:     lbs.NewDatabase(usBounds, tuples),
		Grid:   buildGrid(usBounds, pts),
	}
}

// USARestaurants generates n restaurant POIs over the US plane with
// Google-Maps-like review ratings (bimodal-ish around 3.5–4.5),
// review counts (Zipf-ish) and Sunday-opening flags (≈70 % open).
// Used by Figures 12, 15, 17 and the Table-1 Austin aggregate.
func USARestaurants(n int, seed int64) *Scenario {
	pts := ClusterMix(ClusterMixConfig{
		Bounds: usBounds, N: n, Clusters: 80, UniformFrac: 0.12, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	tuples := make([]lbs.Tuple, n)
	for i, p := range pts {
		rating := 3.9 + rng.NormFloat64()*0.6
		if rating > 5 {
			rating = 5
		}
		if rating < 1 {
			rating = 1
		}
		reviews := math.Floor(math.Exp(rng.ExpFloat64() * 2.2))
		open := "no"
		if rng.Float64() < 0.7 {
			open = "yes"
		}
		tuples[i] = lbs.Tuple{
			ID:       int64(i + 1),
			Loc:      p,
			Name:     fmt.Sprintf("Restaurant %d", i+1),
			Category: "restaurant",
			Attrs: map[string]float64{
				"rating":  math.Round(rating*10) / 10,
				"reviews": reviews,
			},
			Tags: map[string]string{"open_sunday": open},
		}
	}
	return &Scenario{
		Name:   "usa-restaurants",
		Bounds: usBounds,
		DB:     lbs.NewDatabase(usBounds, tuples),
		Grid:   buildGrid(usBounds, pts),
	}
}

// StarbucksUS generates a map-service database containing nStarbucks
// "Starbucks" cafes among nOther other POIs, for the Table-1
// pass-through selection demonstration (the paper estimates 12,023
// Starbucks with ground truth ≈ 11,900). Starbucks stores are more
// urban-concentrated than the background POIs.
func StarbucksUS(nStarbucks, nOther int, seed int64) *Scenario {
	sbPts := ClusterMix(ClusterMixConfig{
		Bounds: usBounds, N: nStarbucks, Clusters: 50,
		UniformFrac: 0.05, StdFrac: 0.015, Seed: seed,
	})
	otherPts := ClusterMix(ClusterMixConfig{
		Bounds: usBounds, N: nOther, Clusters: 70,
		UniformFrac: 0.2, Seed: seed + 7,
	})
	rng := rand.New(rand.NewSource(seed + 2))
	tuples := make([]lbs.Tuple, 0, nStarbucks+nOther)
	id := int64(1)
	for _, p := range sbPts {
		tuples = append(tuples, lbs.Tuple{
			ID: id, Loc: p, Name: "Starbucks", Category: "cafe",
			Attrs: map[string]float64{"rating": 3.5 + rng.Float64()},
		})
		id++
	}
	for i, p := range otherPts {
		open := "no"
		if rng.Float64() < 0.65 {
			open = "yes"
		}
		tuples = append(tuples, lbs.Tuple{
			ID: id, Loc: p,
			Name:     fmt.Sprintf("POI %d", i+1),
			Category: "restaurant",
			Attrs:    map[string]float64{"rating": 1 + rng.Float64()*4},
			Tags:     map[string]string{"open_sunday": open},
		})
		id++
	}
	all := make([]geom.Point, len(tuples))
	for i := range tuples {
		all[i] = tuples[i].Loc
	}
	return &Scenario{
		Name:   "starbucks-us",
		Bounds: usBounds,
		DB:     lbs.NewDatabase(usBounds, tuples),
		Grid:   buildGrid(usBounds, all),
	}
}

// SocialConfig parameterizes a location-based social network user
// population (WeChat, Sina Weibo).
type SocialConfig struct {
	N        int
	MaleFrac float64
	Seed     int64
	// Obfuscation distorts the locations the service ranks by; WeChat
	// applies noticeably stronger obfuscation than map services
	// (Figure 21).
	Obfuscation lbs.Obfuscation
}

// SocialNetwork generates a user population over the China plane with
// gender tags; users concentrate heavily in urban clusters.
func SocialNetwork(name string, cfg SocialConfig) *Scenario {
	pts := ClusterMix(ClusterMixConfig{
		Bounds: chinaBounds, N: cfg.N, Clusters: 100,
		UniformFrac: 0.08, StdFrac: 0.012, Seed: cfg.Seed,
	})
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	tuples := make([]lbs.Tuple, cfg.N)
	for i, p := range pts {
		gender := "f"
		if rng.Float64() < cfg.MaleFrac {
			gender = "m"
		}
		tuples[i] = lbs.Tuple{
			ID:   int64(i + 1),
			Loc:  p,
			Name: fmt.Sprintf("user-%d", i+1),
			Tags: map[string]string{"gender": gender},
		}
	}
	return &Scenario{
		Name:   name,
		Bounds: chinaBounds,
		DB:     lbs.NewObfuscatedDatabase(chinaBounds, tuples, cfg.Obfuscation),
		Grid:   buildGrid(chinaBounds, pts),
	}
}

// WeChatChina generates the WeChat stand-in: male fraction ≈ 67.1 %
// (the paper's estimate) and strong location obfuscation.
func WeChatChina(n int, seed int64) *Scenario {
	return SocialNetwork("wechat-china", SocialConfig{
		N: n, MaleFrac: 0.671, Seed: seed,
		Obfuscation: lbs.Obfuscation{GridSize: 0.05, Jitter: 0.03, Seed: seed + 99},
	})
}

// WeiboChina generates the Sina Weibo stand-in: male fraction ≈ 50.4 %
// and no obfuscation beyond the interface's rank-only output.
func WeiboChina(n int, seed int64) *Scenario {
	return SocialNetwork("weibo-china", SocialConfig{
		N: n, MaleFrac: 0.504, Seed: seed,
	})
}
