package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child, as the
// command binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(envServe); spec != "" {
		serve(spec)
		return
	}
	os.Exit(m.Run())
}

// tinyWorkloads are the four workloads at a scale that runs in seconds.
func tinyWorkloads() []workloadRunner {
	mix := pointMix{HotSpots: 64, HotFrac: 0.8, ZipfS: 1.1}
	return []workloadRunner{
		&httpQuery{
			Tuples: 2000, K: 5, Shards: 2, Cache: 256, pointMix: mix,
			RateQPS: 300, Conns: 2, NominalShare: 0.6,
			LadderStep: 1.25, LadderRungs: 2, LimitMS: 2, CheckFrac: 0.05,
		},
		&estimateLR{
			Tuples: 2000, K: 5, Shards: 2, Cache: 256, Analysts: 2,
			MaxQueries: 600, TargetCI: 0.05, ParallelEvery: 3, MaxZ: 5, RefJobs: 2,
		},
		&estimateLNR{Tuples: 1000, K: 5, Clients: 2, MaxQueries: 400, RefJobs: 2},
		&liveIngest{
			Tuples: 2000, K: 5, Cache: 256, pointMix: mix,
			ReadQPS: 200, WriteOPS: 50, Probes: 8,
		},
	}
}

// TestSmokeAllWorkloads runs every workload end to end at a tiny scale,
// traced, and requires every gate to pass: answers checked, jobs done,
// estimates unbiased, writes acked, and the traced pass's answers
// bit-identical to the untraced pass's.
func TestSmokeAllWorkloads(t *testing.T) {
	o := runOptions{seed: 3, seconds: 600 * time.Millisecond, trace: true, setups: 2, warmup: 200 * time.Millisecond, outDir: t.TempDir()}
	for _, w := range tinyWorkloads() {
		t.Run(w.name(), func(t *testing.T) {
			res, err := runWorkload(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range res.Gates {
				if !g.OK {
					t.Errorf("gate %s: %s", g.Name, g.Detail)
				}
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEndDefs {
				if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value", d.Name, m)
				}
			}
			for _, d := range layerDefs {
				if _, ok := res.Layers[d.Name]; !ok {
					t.Errorf("per-layer %s missing", d.Name)
				}
			}
			if _, err := os.Stat(filepath.Join(o.outDir, w.name()+".trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCommand keeps BENCHMARK.json and the command's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	ws := allWorkloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads listed, command has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name() || spec.Workloads[i].Why != w.why() {
			t.Errorf("workload %d: %+v, command has %q: %q", i, spec.Workloads[i], w.name(), w.why())
		}
	}
	for _, c := range []struct {
		listed, defs []metricDef
	}{{spec.EndToEnd, endToEndDefs}, {spec.PerLayer, layerDefs}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("%d metrics listed, command reports %d", len(c.listed), len(c.defs))
			continue
		}
		for i := range c.defs {
			if c.listed[i] != c.defs[i] {
				t.Errorf("metric %d: listed %+v, command reports %+v", i, c.listed[i], c.defs[i])
			}
		}
	}
}
