package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/geo"
)

// TestByNameMatchesConstructors pins the scenario table to the exported
// constructors: the same name, seed and density generate the same
// database under the same metric.
func TestByNameMatchesConstructors(t *testing.T) {
	const n, seed = 120, 5
	cases := []struct {
		name, density string
		want          *Scenario
	}{
		{"schools", "", USASchools(n, seed)},
		{"restaurants", "", USARestaurants(n, seed)},
		{"starbucks", "", StarbucksUS(n, n*4, seed)},
		{"wechat", "", WeChatChina(n, seed)},
		{"weibo", "", WeiboChina(n, seed)},
		{"cities", "zipf", Cities("cities", USBounds(), geo.Euclidean, DensityZipf, n, 40, seed)},
		{"geo-us", "", GeoUS(n, seed, DensityGauss)},
		{"geo-china", "gauss", GeoChina(n, seed, DensityGauss)},
	}
	for _, c := range cases {
		got, err := ByName(c.name, n, seed, c.density)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m, err := NamedMetric(c.name, c.density)
		if err != nil || m != c.want.Metric || got.Metric != m {
			t.Errorf("%s: metric %v / %v (%v), want %v", c.name, m, got.Metric, err, c.want.Metric)
		}
		if got.Name != c.want.Name || got.DB.Len() != c.want.DB.Len() {
			t.Fatalf("%s: %s/%d, want %s/%d", c.name, got.Name, got.DB.Len(), c.want.Name, c.want.DB.Len())
		}
		for i := 0; i < got.DB.Len(); i++ {
			if !reflect.DeepEqual(got.DB.Tuple(i), c.want.DB.Tuple(i)) {
				t.Fatalf("%s: tuple %d differs", c.name, i)
			}
		}
	}
}

func TestByNameRejects(t *testing.T) {
	for _, c := range []struct{ name, density, want string }{
		{"atlantis", "", `unknown scenario "atlantis"`},
		{"cities", "uniform", `unknown density "uniform"`},
		{"schools", "zipf", `"schools" has a fixed density`},
		{"wechat", "gauss", `"wechat" has a fixed density`},
	} {
		if _, err := ByName(c.name, 10, 1, c.density); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ByName(%q, density %q): %v, want %q", c.name, c.density, err, c.want)
		}
	}
}
