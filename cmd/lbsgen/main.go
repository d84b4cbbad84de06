// Command lbsgen generates a synthetic LBS dataset, as JSON for
// inspection or loading into external tools, or — when -o ends in
// .lbspack — directly in the paged on-disk format of internal/store,
// so large synthetic cities are generated once and then opened by
// lbsserve/lbsbench without re-parsing. Scenarios mirror the paper's
// evaluation data (see internal/workload).
//
// Usage:
//
//	lbsgen -scenario schools -n 2000 -seed 7 > schools.json
//	lbsgen -scenario wechat -n 5000 -o users.json
//	lbsgen -scenario wechat -n 500000 -o city.lbspack
//	lbsserve -dataset city.lbspack -addr :8080
//
// The geodesic scenarios (geo-us, geo-china) generate lon/lat degree
// coordinates ranked under the Haversine metric; the "cities"
// scenario is their planar (km, Euclidean) twin. All three honor
// -density: zipf swaps the Gaussian cluster spread for a heavy-tailed
// power law (dense cores, long suburban tails). The metric is
// recorded in both output forms — pack header field and JSON
// "metric" — so lbsserve refuses to serve the city under the wrong
// geometry.
//
// The .lbspack form also preserves effective (obfuscated) locations,
// which the JSON export does not carry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/store"
	"repro/internal/workload"
)

// jsonTuple is the serialized tuple form.
type jsonTuple struct {
	ID       int64              `json:"id"`
	X        float64            `json:"x"`
	Y        float64            `json:"y"`
	Name     string             `json:"name,omitempty"`
	Category string             `json:"category,omitempty"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Tags     map[string]string  `json:"tags,omitempty"`
}

type jsonDataset struct {
	Scenario string      `json:"scenario"`
	MinX     float64     `json:"min_x"`
	MinY     float64     `json:"min_y"`
	MaxX     float64     `json:"max_x"`
	MaxY     float64     `json:"max_y"`
	Metric   string      `json:"metric,omitempty"`
	Tuples   []jsonTuple `json:"tuples"`
}

func main() {
	var (
		scenario = flag.String("scenario", "schools", "schools | restaurants | starbucks | wechat | weibo | cities | geo-us | geo-china")
		n        = flag.Int("n", 2000, "number of tuples")
		seed     = flag.Int64("seed", 1, "generator seed")
		density  = flag.String("density", "", "cluster spread for cities/geo-us/geo-china: gauss (default) | zipf (heavy-tailed power law)")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	sc, err := workload.ByName(*scenario, *n, *seed, *density)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if strings.HasSuffix(strings.ToLower(*out), ".lbspack") {
		if err := store.WritePackMetric(*out, sc.DB, sc.Metric, 0, 0, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ds := jsonDataset{
		Scenario: sc.Name,
		MinX:     sc.Bounds.Min.X, MinY: sc.Bounds.Min.Y,
		MaxX: sc.Bounds.Max.X, MaxY: sc.Bounds.Max.Y,
		Metric: sc.Metric.String(),
	}
	for i := 0; i < sc.DB.Len(); i++ {
		t := sc.DB.Tuple(i)
		ds.Tuples = append(ds.Tuples, jsonTuple{
			ID: t.ID, X: t.Loc.X, Y: t.Loc.Y,
			Name: t.Name, Category: t.Category, Attrs: t.Attrs, Tags: t.Tags,
		})
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ds); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
