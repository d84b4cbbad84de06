// Command bench is the repository's end-to-end benchmark. For each
// workload it generates the inputs from a seed, starts the serving
// stack as a fresh child process (this same binary), drives it over
// loopback HTTP from this process, checks the answers, and prints every
// metric by name with its unit and sample count. The last line of
// output is one JSON object per workload:
//
//	{"correct":true,"attempted":…,"failed":0,"metrics":{…}}
//
// carrying the end-to-end metrics, or with -trace 1 the per-layer ones.
// Run it from the repository root through the wrapper, which builds it
// into .bench_build/:
//
//	bash bench/run.sh --workload http-query --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --seed 7
//	bash bench/run.sh compare parent*.json -- change*.json
//
// or from bench/ with go run . and the same flags. Each run also writes
// bench/out/<workload>-seed<N>[-trace].json (metrics, gates and
// provenance), and a traced run writes bench/out/<workload>.trace.json
// with every span. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// setupsPerPass is how many times a pass starts its child; setup_s
	// is the median, since single set-up times vary by up to a third
	// within a run.
	setupsPerPass = 15
	// warmup is the untimed load before measuring, which fills the
	// caches and finishes lazy set-up.
	warmup = 2 * time.Second
)

// allWorkloads returns the benchmark's workloads at full scale.
func allWorkloads() []workloadRunner {
	mix := pointMix{HotSpots: 1024, HotFrac: 0.8, ZipfS: 1.1}
	return []workloadRunner{
		&httpQuery{
			Tuples: 50000, K: 10, Shards: 4, Cache: 4096, pointMix: mix,
			RateQPS: 3600, Conns: 2, NominalShare: 0.6,
			LadderStep: 1.25, LadderRungs: 6, LimitMS: 2, CheckFrac: 0.01,
		},
		&estimateLR{
			Tuples: 50000, K: 10, Shards: 4, Cache: 4096, Analysts: 1,
			MaxQueries: 600, TargetCI: 0.05, ParallelEvery: 3, MaxZ: 5, RefJobs: 3,
		},
		&estimateLNR{Tuples: 20000, K: 10, Clients: 2, MaxQueries: 3000, RefJobs: 3},
		&liveIngest{
			Tuples: 50000, K: 10, Cache: 4096, pointMix: mix,
			ReadQPS: 2000, WriteOPS: 200, Probes: 64,
		},
	}
}

func main() {
	if spec := os.Getenv(envServe); spec != "" {
		serve(spec)
		return
	}
	if os.Getenv(envSpin) != "" {
		spin()
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// benchDir locates the benchmark's directory from the working
// directory: the repository root or bench/ itself.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: also run a traced pass and report the per-layer metrics")
	out := fs.String("out", filepath.Join(benchDir(), "out"), "directory for results and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1 and --seconds a positive number")
		return 2
	}
	var run []workloadRunner
	for _, w := range allWorkloads() {
		if *name == "all" || *name == w.name() {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// The load generator shares the host's cores with the server; a
	// lighter GC keeps its collections (its live heap is a few MB of
	// schedules) from competing with the server more than they must.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := runOptions{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, setups: setupsPerPass, warmup: warmup, outDir: *out,
	}
	awake, cpus, meter, err := startKeepAwake(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer awake.stop()
	o.ref = meter
	prov := newProvenance(o)
	prov.KeepAwakeCPUs = cpus
	code := 0
	for _, w := range run {
		res, err := runWorkload(ctx, w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		path := filepath.Join(*out, fmt.Sprintf("%s-seed%d%s.json", w.name(), *seed, map[bool]string{true: "-trace"}[o.trace]))
		if err := writeResult(path, prov, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		report(os.Stdout, res, path)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// provenance is stamped into every result file.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OSArch     string  `json:"os_arch"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Time       string  `json:"time"`
	// KeepAwakeCPUs is how many CPUs the keep-awake child held out of
	// idle (see spin); 0 where it is unsupported or refused, and then
	// the timings are as measured, not calibrated to reference speed.
	KeepAwakeCPUs int `json:"keep_awake_cpus"`
	// SingleCore flags a result measured on one core: the load
	// generator and the server then share it, so it is not comparable
	// with multi-core results.
	SingleCore bool `json:"single_core_host,omitempty"`
}

func newProvenance(o runOptions) provenance {
	// Ask git only where the repository root holds one, so the command
	// never searches the directories above its checkout.
	commit := "unknown"
	root := filepath.Join(benchDir(), "..")
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: commit, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: o.trace,
		Time: time.Now().UTC().Format(time.RFC3339), SingleCore: runtime.NumCPU() == 1,
	}
}

// resultFile is what a run writes per workload.
type resultFile struct {
	Provenance provenance      `json:"provenance"`
	Result     *workloadResult `json:"result"`
}

func writeResult(path string, prov provenance, res *workloadResult) error {
	b, err := json.MarshalIndent(resultFile{prov, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints a workload's metrics and gates, ending with the JSON
// summary line.
func report(out *os.File, res *workloadResult, path string) {
	fmt.Fprintf(out, "== %s: correct=%v attempted=%d failed=%d (%s)\n", res.Workload, res.Correct, res.Attempted, res.Failed, path)
	line := func(kind, name string, m metric) {
		pct := ""
		if m.Pct != 0 {
			pct = fmt.Sprintf(" p%g", m.Pct)
		}
		fmt.Fprintf(out, "  %-7s %-30s %14.6g %-8s n=%d%s\n", kind, name, m.Value, m.Unit, m.N, pct)
	}
	for _, d := range endToEndDefs {
		line("metric", d.Name, res.Metrics[d.Name])
	}
	for _, k := range sortedKeys(res.Info) {
		line("info", k, res.Info[k])
	}
	for _, k := range sortedKeys(res.Layers) {
		line("layer", k, res.Layers[k])
	}
	for _, k := range sortedKeys(res.Overhead) {
		fmt.Fprintf(out, "  %-7s %-30s %+14.6g\n", "trace+", k, res.Overhead[k])
	}
	for _, g := range res.Gates {
		fmt.Fprintf(out, "  gate    %-4s %s: %s\n", map[bool]string{true: "ok", false: "FAIL"}[g.OK], g.Name, g.Detail)
	}
	defs, from := endToEndDefs, res.Metrics
	if res.Layers != nil {
		defs, from = layerDefs, res.Layers
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		metrics[d.Name] = metric{Value: from[d.Name].Value, Unit: d.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	fmt.Fprintln(out, string(b))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
