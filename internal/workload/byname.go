package workload

import (
	"fmt"

	"repro/internal/geo"
)

// named is the scenario table behind ByName: the commands' -scenario
// names, the metric each scenario is laid out for, whether it honors a
// density law, and its generator.
var named = map[string]struct {
	metric  geo.Metric
	density bool
	gen     func(n int, seed int64, d Density) *Scenario
}{
	"schools":     {geo.Euclidean, false, func(n int, seed int64, _ Density) *Scenario { return USASchools(n, seed) }},
	"restaurants": {geo.Euclidean, false, func(n int, seed int64, _ Density) *Scenario { return USARestaurants(n, seed) }},
	"starbucks":   {geo.Euclidean, false, func(n int, seed int64, _ Density) *Scenario { return StarbucksUS(n, n*4, seed) }},
	"wechat":      {geo.Euclidean, false, func(n int, seed int64, _ Density) *Scenario { return WeChatChina(n, seed) }},
	"weibo":       {geo.Euclidean, false, func(n int, seed int64, _ Density) *Scenario { return WeiboChina(n, seed) }},
	"cities": {geo.Euclidean, true, func(n int, seed int64, d Density) *Scenario {
		return Cities("cities", usBounds, geo.Euclidean, d, n, 40, seed)
	}},
	"geo-us":    {geo.Haversine, true, GeoUS},
	"geo-china": {geo.Haversine, true, GeoChina},
}

// NamedMetric checks a scenario name and density value the way ByName
// does and returns the metric the scenario is laid out for, without
// generating it. density is the raw flag value: "" keeps the default,
// and any explicit value is an error on a fixed-density scenario.
func NamedMetric(name, density string) (geo.Metric, error) {
	sc, ok := named[name]
	if !ok {
		return 0, fmt.Errorf("unknown scenario %q", name)
	}
	if _, err := ParseDensity(density); err != nil {
		return 0, err
	}
	if density != "" && !sc.density {
		return 0, fmt.Errorf("-density applies to the cities/geo-us/geo-china scenarios; %q has a fixed density", name)
	}
	return sc.metric, nil
}

// ByName generates the named scenario (schools, restaurants,
// starbucks, wechat, weibo, cities, geo-us, geo-china) with n tuples
// from seed; starbucks adds 4n other POIs around its n cafes.
func ByName(name string, n int, seed int64, density string) (*Scenario, error) {
	if _, err := NamedMetric(name, density); err != nil {
		return nil, err
	}
	d, _ := ParseDensity(density)
	return named[name].gen(n, seed, d), nil
}
