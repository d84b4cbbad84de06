package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/lbs"
	"repro/internal/workload"
)

// lrGoldenCase is one pinned LR-LBS-AGG configuration: a dataset, the
// service k, the adaptive-h threshold and the seed, plus the exact
// outcome of a fixed-length COUNT run over it.
type lrGoldenCase struct {
	name      string
	data      string // "cluster" (100×100 cluster mix) or "schools" (USASchools)
	n, k      int
	lambda0   float64 // Lambda0Frac; 0 keeps the default
	seed      int64
	fixedH    int
	noHistory bool
	weighted  bool // schools only: sample from the scenario's density grid
	samples   int

	est, se uint64 // Float64bits of the COUNT estimate and its stderr
	queries int64
	hChosen string // AdaptiveHChosen histogram, "h:n" pairs by h
}

// lrGoldenCases pins the LR estimator bit for bit across k, λ0, seed
// and the FixedH / no-history paths. The values were recorded with an
// adaptive-h choice that built the full top-k history complex for
// every returned tuple; the top-1 short-circuit and the level-by-level
// growth of the history complex are pure optimizations, so every value
// must stay unchanged. The schools50k cases run at the estimate-lr
// benchmark's shape (50 000 schools, k = 10), where the history reaches
// a thousand sites and h climbs to 10.
var lrGoldenCases = []lrGoldenCase{
	{name: "cluster/k3/default", data: "cluster", n: 1500, k: 3, seed: 1, samples: 40,
		est: 0x40a511a28523c63c, se: 0x409999078ff826d2, queries: 563, hChosen: "1:117"},
	{name: "cluster/k3/l005", data: "cluster", n: 1500, k: 3, lambda0: 0.005, seed: 1, samples: 40,
		est: 0x40a230344e656dcf, se: 0x4095550bb08c4716, queries: 1141, hChosen: "1:107,2:6,3:4"},
	{name: "cluster/k3/l02", data: "cluster", n: 1500, k: 3, lambda0: 0.02, seed: 1, samples: 40,
		est: 0x409eebbeeb844f2f, se: 0x409521f490e1cdf1, queries: 4508, hChosen: "1:18,2:15,3:84"},
	{name: "cluster/k5/default", data: "cluster", n: 1500, k: 5, seed: 1, samples: 40,
		est: 0x4097fd143fc343f2, se: 0x408acce6b6c4097e, queries: 515, hChosen: "1:195"},
	{name: "cluster/k5/l005", data: "cluster", n: 1500, k: 5, lambda0: 0.005, seed: 1, samples: 40,
		est: 0x408ee1fba1ec6110, se: 0x4078a31df9ba4679, queries: 2699, hChosen: "1:157,2:17,3:7,4:4,5:10"},
	{name: "cluster/k5/l02", data: "cluster", n: 1500, k: 5, lambda0: 0.02, seed: 1, samples: 40,
		est: 0x408bec36e7709943, se: 0x4075dfd53d34d9a7, queries: 12805, hChosen: "1:27,2:17,3:26,4:30,5:95"},
	{name: "cluster/k10/default", data: "cluster", n: 1500, k: 10, seed: 1, samples: 40,
		est: 0x40963f47609ea2d9, se: 0x408c8db2a4779e41, queries: 1617, hChosen: "1:349,2:9,3:5,4:16,5:7,6:3,7:1"},
	{name: "cluster/k10/l005", data: "cluster", n: 1500, k: 10, lambda0: 0.005, seed: 1, samples: 40,
		est: 0x409304368cda2099, se: 0x4087fe7c03652ee0, queries: 8630, hChosen: "1:304,2:30,3:13,4:8,5:5,6:6,7:8,8:2,9:2,10:12"},
	{name: "cluster/k10/l02", data: "cluster", n: 1500, k: 10, lambda0: 0.02, seed: 1, samples: 40,
		est: 0x40a1cebad8f5e22f, se: 0x4094634198ca90cc, queries: 31637, hChosen: "1:64,2:38,3:51,4:45,5:48,6:42,7:30,8:14,9:22,10:36"},
	{name: "schools/k5/default/s1", data: "schools", n: 3000, k: 5, seed: 1, samples: 25,
		est: 0x40a187a7361d156c, se: 0x408dd3928c0de7fe, queries: 420, hChosen: "1:113,2:6,3:1"},
	{name: "schools/k5/default/s2", data: "schools", n: 3000, k: 5, seed: 2, samples: 25,
		est: 0x4094bcd30700d0a8, se: 0x407109d5f2f2e515, queries: 525, hChosen: "1:111,2:6,3:3"},
	{name: "schools/k5/l005/s1", data: "schools", n: 3000, k: 5, lambda0: 0.005, seed: 1, samples: 25,
		est: 0x40a1ffa585147c01, se: 0x408ded252f2b6ee3, queries: 1734, hChosen: "1:88,2:11,3:6,4:11,5:4"},
	{name: "schools/k5/l005/s2", data: "schools", n: 3000, k: 5, lambda0: 0.005, seed: 2, samples: 25,
		est: 0x4092331960706ea0, se: 0x406530aebab830ec, queries: 2903, hChosen: "1:65,2:17,3:13,4:12,5:13"},
	{name: "schools/k10/default/s1", data: "schools", n: 3000, k: 10, seed: 1, samples: 25,
		est: 0x40a07d010f2850e0, se: 0x408e0fb712765858, queries: 358, hChosen: "1:225,2:8,3:3,4:4"},
	{name: "schools/k10/default/s2", data: "schools", n: 3000, k: 10, seed: 2, samples: 25,
		est: 0x40a9dc9c6fbd4b75, se: 0x409a3079237fbb05, queries: 1072, hChosen: "1:211,2:11,3:5,4:5,5:3,6:1,7:3,8:1"},
	{name: "schools/k10/l005/s1", data: "schools", n: 3000, k: 10, lambda0: 0.005, seed: 1, samples: 25,
		est: 0x40a293ba06a8c4c0, se: 0x408da15de8a80883, queries: 6529, hChosen: "1:133,2:23,3:21,4:17,5:17,6:8,7:10,8:4,9:2,10:5"},
	{name: "schools/k10/l005/s2", data: "schools", n: 3000, k: 10, lambda0: 0.005, seed: 2, samples: 25,
		est: 0x40a316db2fe0238a, se: 0x409289d3f482cf9f, queries: 8624, hChosen: "1:135,2:11,3:21,4:25,5:13,6:11,7:9,8:10,9:1,10:4"},
	{name: "schools/k10/weighted", data: "schools", n: 3000, k: 10, lambda0: 0.005, seed: 5, weighted: true, samples: 25,
		est: 0x40aec6b7fd073a85, se: 0x4093551a44c450da, queries: 16733, hChosen: "1:150,2:23,3:10,4:6,5:11,6:2,8:1,9:3,10:34"},
	{name: "schools50k/k10/default/s1", data: "schools", n: 50000, k: 10, seed: 1, samples: 15,
		est: 0x40ec7387c4597f93, se: 0x40da84c2ce5b6844, queries: 4001, hChosen: "1:120,3:1,4:2,5:2,6:4,7:2,8:1,9:2,10:6"},
	{name: "schools50k/k10/default/s2", data: "schools", n: 50000, k: 10, seed: 2, samples: 15,
		est: 0x40e2d62712cabab1, se: 0x40d52894aa453b5a, queries: 1161, hChosen: "1:130,4:1,5:5,6:2,7:2"},
	{name: "cluster/k5/fixedH2", data: "cluster", n: 1500, k: 5, seed: 3, fixedH: 2, samples: 40,
		est: 0x407981e87937cd83, se: 0x404beab75d759028, queries: 2165, hChosen: ""},
	{name: "schools/k10/fixedH3", data: "schools", n: 3000, k: 10, seed: 4, fixedH: 3, samples: 25,
		est: 0x40adc11470e37ab6, se: 0x4095f6ed648fd637, queries: 4354, hChosen: ""},
	// DefaultLROptions (FixedH = 1), the production path, whose seed is
	// the top-1 history complex; recorded when that seed was still the
	// top-1 faces copied out of a top-2 build.
	{name: "schools50k/k10/fixedH1/s1", data: "schools", n: 50000, k: 10, seed: 1, fixedH: 1, samples: 100,
		est: 0x40e2f15cc98612cf, se: 0x40c9afeda423b9ce, queries: 1806, hChosen: ""},
	{name: "schools50k/k10/fixedH1/s2", data: "schools", n: 50000, k: 10, seed: 2, fixedH: 1, samples: 100,
		est: 0x40e194082d64f806, se: 0x40b7fd8afa3aff48, queries: 1928, hChosen: ""},
	{name: "cluster/k3/fixedH1", data: "cluster", n: 1500, k: 3, seed: 1, fixedH: 1, samples: 40,
		est: 0x40a511a28523c63c, se: 0x409999078ff826d2, queries: 563, hChosen: ""},
	{name: "cluster/k5/nohistory", data: "cluster", n: 1500, k: 5, lambda0: 0.02, seed: 4, noHistory: true, samples: 40,
		est: 0x40a01b74b80f57e5, se: 0x40958e4063acb724, queries: 569, hChosen: ""},
}

// run executes the case and formats its outcome.
func (c lrGoldenCase) run(t *testing.T) (est, se uint64, queries int64, hChosen string) {
	t.Helper()
	var db *lbs.Database
	opts := DefaultLROptions(c.seed)
	switch c.data {
	case "cluster":
		db = smallService2(c.n, 41)
	case "schools":
		sc := workload.USASchools(c.n, 43)
		db = sc.DB
		if c.weighted {
			opts.Sampler = sc.Grid
		}
	default:
		t.Fatalf("unknown dataset %q", c.data)
	}
	opts.Lambda0Frac = c.lambda0
	opts.FixedH = c.fixedH
	opts.UseHistory = !c.noHistory
	svc := lbs.NewService(db, lbs.Options{K: c.k})
	agg := NewLRAggregator(svc, opts)
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(c.samples))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples != c.samples {
		t.Fatalf("%s: %d samples, want %d", c.name, res[0].Samples, c.samples)
	}
	hs := agg.Stats().AdaptiveHChosen
	keys := make([]int, 0, len(hs))
	for h := range hs {
		keys = append(keys, h)
	}
	sort.Ints(keys)
	parts := make([]string, len(keys))
	for i, h := range keys {
		parts[i] = fmt.Sprintf("%d:%d", h, hs[h])
	}
	return math.Float64bits(res[0].Estimate), math.Float64bits(res[0].StdErr),
		svc.QueryCount(), strings.Join(parts, ",")
}

// TestLRGoldenEstimates requires every pinned configuration to
// reproduce its recorded estimate, stderr, query count and adaptive-h
// histogram exactly.
func TestLRGoldenEstimates(t *testing.T) {
	for _, c := range lrGoldenCases {
		t.Run(c.name, func(t *testing.T) {
			est, se, q, hc := c.run(t)
			if est != c.est || se != c.se || q != c.queries || hc != c.hChosen {
				t.Errorf("got est=%v (%#x) se=%v (%#x) queries=%d h=%q\nwant est=%v (%#x) se=%v (%#x) queries=%d h=%q",
					math.Float64frombits(est), est, math.Float64frombits(se), se, q, hc,
					math.Float64frombits(c.est), c.est, math.Float64frombits(c.se), c.se, c.queries, c.hChosen)
			}
		})
	}
}
