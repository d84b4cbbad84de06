package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// minPairs is the fewest parent/change run pairs a comparison accepts.
const minPairs = 10

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	return &s, json.Unmarshal(b, &s)
}

// verdict is the comparison's finding for one metric on one workload.
type verdict struct {
	Parent, Change float64 // medians
	Q1, Q3         float64 // the parent's quartiles
	Wins, Pairs    int     // pairs the change won (ties count for neither)
	Worse          float64 // median change relative to the parent, + = worse
	Finding        string
}

// judge applies the acceptance rule to paired runs (parent[i] was run
// next to change[i]). A gain needs at least minPairs pairs, a win in
// 9/10 of them and a median shift beyond the parent's interquartile
// range. A median worse by more than the bound is a regression. A
// parent spread (IQR over median) wider than the bound leaves the
// metric unresolved unless every change run beats every parent run.
func judge(parent, change []float64, lowerBetter bool, bound float64) verdict {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	v := verdict{Pairs: n}
	if n < 2 {
		v.Finding = "unresolved: too few runs"
		return v
	}
	v.Parent, v.Change = median(parent), median(change)
	v.Q1, v.Q3 = quartiles(parent)
	for i := range parent {
		if sign*(change[i]-parent[i]) < 0 {
			v.Wins++
		}
	}
	v.Worse = sign * (v.Change - v.Parent) / math.Abs(v.Parent)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && sign*(c-p) < 0
		}
	}
	spread := (v.Q3 - v.Q1) / math.Abs(v.Parent)
	switch {
	case n < minPairs:
		v.Finding = fmt.Sprintf("unresolved: %d pairs, need %d", n, minPairs)
	case v.Worse < 0 && v.Wins*10 >= 9*n && math.Abs(v.Change-v.Parent) > v.Q3-v.Q1:
		v.Finding = "improved"
	case v.Worse > bound:
		v.Finding = "regressed"
	case spread > bound && !allBetter:
		v.Finding = fmt.Sprintf("unresolved: spread %.3f > bound %.3f", spread, bound)
	default:
		v.Finding = "unchanged"
	}
	return v
}

// compareMain implements `bench compare <parent.json…> -- <change.json…>`:
// result files are paired in the order given, per workload.
func compareMain(args []string) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 0 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <parent result.json…> -- <change result.json…>")
		return 2
	}
	spec, err := loadSpec(filepath.Join(benchDir(), "..", "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	parent, err := loadResults(args[:split])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	change, err := loadResults(args[split+1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent p50 [q1, q3]\tchange p50\tworse\twins\tfinding")
	code := 0
	for _, wl := range sortedKeys(parent) {
		for _, m := range spec.EndToEnd {
			v := judge(values(parent[wl], m.Name), values(change[wl], m.Name), m.Better == "lower", m.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g\t%+.1f%%\t%d/%d\t%s\n",
				wl, m.Name, v.Parent, v.Q1, v.Q3, m.Unit, v.Change, 100*v.Worse, v.Wins, v.Pairs, v.Finding)
			if v.Finding == "regressed" {
				code = 1
			}
		}
	}
	tw.Flush()
	return code
}

// storedResult is the part of a result file the comparison reads.
type storedResult struct {
	Workload string            `json:"workload"`
	Metrics  map[string]metric `json:"metrics"`
}

// loadResults reads result files and groups their results by workload,
// keeping the order given.
func loadResults(paths []string) (map[string][]*storedResult, error) {
	out := map[string][]*storedResult{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf struct {
			Result *storedResult `json:"result"`
		}
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Result == nil {
			return nil, fmt.Errorf("%s: no result", p)
		}
		out[rf.Result.Workload] = append(out[rf.Result.Workload], rf.Result)
	}
	return out, nil
}

func values(rs []*storedResult, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}
