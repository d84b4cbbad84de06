package workload

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
)

func TestClusterMixDeterministic(t *testing.T) {
	cfg := ClusterMixConfig{Bounds: usBounds, N: 500, Clusters: 10, Seed: 42}
	a := ClusterMix(cfg)
	b := ClusterMix(cfg)
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("not deterministic at %d", i)
		}
	}
}

func TestClusterMixInBounds(t *testing.T) {
	pts := ClusterMix(ClusterMixConfig{Bounds: usBounds, N: 2000, Clusters: 30, Seed: 1})
	for _, p := range pts {
		if !usBounds.Contains(p) {
			t.Fatalf("point outside bounds: %v", p)
		}
	}
}

func TestClusterMixIsClustered(t *testing.T) {
	// Spatial skew check: with clustering the occupied-cell count on a
	// coarse grid must be much smaller than for a uniform scatter.
	countCells := func(pts []geom.Point) int {
		const g = 20
		occupied := map[int]bool{}
		for _, p := range pts {
			cx := int(p.X / usBounds.Width() * g)
			cy := int(p.Y / usBounds.Height() * g)
			occupied[cy*g+cx] = true
		}
		return len(occupied)
	}
	clustered := ClusterMix(ClusterMixConfig{
		Bounds: usBounds, N: 2000, Clusters: 10, UniformFrac: 0.05, Seed: 3,
	})
	uniform := ClusterMix(ClusterMixConfig{
		Bounds: usBounds, N: 2000, Clusters: 1, UniformFrac: 1.0, Seed: 3,
	})
	cc, cu := countCells(clustered), countCells(uniform)
	if cc >= cu {
		t.Errorf("clustered occupies %d cells, uniform %d — no skew", cc, cu)
	}
}

func TestClusterMixDefaultsApplied(t *testing.T) {
	pts := ClusterMix(ClusterMixConfig{Bounds: usBounds, N: 100, Seed: 5})
	if len(pts) != 100 {
		t.Fatalf("defaults broke generation: %d", len(pts))
	}
}

func TestUSASchools(t *testing.T) {
	s := USASchools(800, 7)
	if s.DB.Len() != 800 {
		t.Fatalf("len: %d", s.DB.Len())
	}
	var minE, maxE = math.Inf(1), math.Inf(-1)
	for i := 0; i < s.DB.Len(); i++ {
		tp := s.DB.Tuple(i)
		if tp.Category != "school" {
			t.Fatalf("category: %q", tp.Category)
		}
		e := tp.Attr("enrollment")
		if e < 20 {
			t.Fatalf("enrollment too small: %v", e)
		}
		minE = math.Min(minE, e)
		maxE = math.Max(maxE, e)
	}
	if maxE/minE < 5 {
		t.Errorf("enrollment spread too narrow: %v..%v", minE, maxE)
	}
	if s.Grid == nil {
		t.Errorf("missing density grid")
	}
	if s.Uniform().Bounds() != usBounds {
		t.Errorf("uniform sampler bounds")
	}
}

func TestUSARestaurants(t *testing.T) {
	s := USARestaurants(1000, 11)
	open := 0
	for i := 0; i < s.DB.Len(); i++ {
		tp := s.DB.Tuple(i)
		r := tp.Attr("rating")
		if r < 1 || r > 5 {
			t.Fatalf("rating out of range: %v", r)
		}
		if tp.Tag("open_sunday") == "yes" {
			open++
		}
	}
	frac := float64(open) / float64(s.DB.Len())
	if math.Abs(frac-0.7) > 0.06 {
		t.Errorf("open-sunday fraction: %v", frac)
	}
}

func TestStarbucksUS(t *testing.T) {
	s := StarbucksUS(300, 1200, 13)
	if s.DB.Len() != 1500 {
		t.Fatalf("len: %d", s.DB.Len())
	}
	nsb := s.DB.Count(func(tp *lbs.Tuple) bool { return tp.Name == "Starbucks" })
	if nsb != 300 {
		t.Errorf("starbucks count: %d", nsb)
	}
	// Selection pass-through sanity: a service filtered on the name
	// sees exactly the Starbucks subset.
	svc := lbs.NewService(s.DB, lbs.Options{K: 5})
	res, err := svc.QueryLR(context.Background(), s.Bounds.Center(), lbs.NameFilter("Starbucks"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Name != "Starbucks" {
			t.Fatalf("filter leak: %+v", r)
		}
	}
}

func TestSocialNetworks(t *testing.T) {
	we := WeChatChina(2000, 17)
	wb := WeiboChina(2000, 17)
	frac := func(s *Scenario) float64 {
		m := s.DB.Count(func(tp *lbs.Tuple) bool { return tp.Tag("gender") == "m" })
		return float64(m) / float64(s.DB.Len())
	}
	fw, fb := frac(we), frac(wb)
	if math.Abs(fw-0.671) > 0.03 {
		t.Errorf("wechat male frac: %v", fw)
	}
	if math.Abs(fb-0.504) > 0.03 {
		t.Errorf("weibo male frac: %v", fb)
	}
	// WeChat locations must be obfuscated, Weibo's not.
	movedWe := 0
	for i := 0; i < we.DB.Len(); i++ {
		if we.DB.EffectiveLoc(i).Dist(we.DB.Tuple(i).Loc) > 1e-9 {
			movedWe++
		}
	}
	if movedWe < we.DB.Len()/2 {
		t.Errorf("wechat obfuscation moved only %d tuples", movedWe)
	}
	for i := 0; i < wb.DB.Len(); i++ {
		if wb.DB.EffectiveLoc(i) != wb.DB.Tuple(i).Loc {
			t.Fatalf("weibo should not be obfuscated")
		}
	}
}

func TestGridCorrelatesWithDensity(t *testing.T) {
	s := USASchools(2000, 23)
	// The density at tuple locations should on average exceed the
	// uniform density (because the grid tracks the clusters).
	uni := 1 / s.Bounds.Area()
	var sum float64
	for i := 0; i < s.DB.Len(); i++ {
		sum += s.Grid.Density(s.DB.Tuple(i).Loc)
	}
	avg := sum / float64(s.DB.Len())
	if avg < 2*uni {
		t.Errorf("grid density at tuples %v not much above uniform %v", avg, uni)
	}
}
