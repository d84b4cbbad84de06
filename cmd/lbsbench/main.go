// Command lbsbench regenerates the paper's evaluation: every figure
// (11–21) and Table 1, printed as text tables whose rows/series mirror
// what the paper plots.
//
// Usage:
//
//	lbsbench -experiment fig14              # one experiment, quick scale
//	lbsbench -experiment all -scale paper   # the whole evaluation
//	lbsbench -experiment table1 -runs 10 -n 3000 -budget 20000
//
// Scales: "quick" (seconds, for smoke runs) and "paper" (the paper's
// 25-run settings); individual -n/-runs/-budget/-k flags override the
// chosen scale.
//
// With -remote, lbsbench becomes a client of a running lbsserve
// instead: it submits one estimation job over the wire, streams its
// trace, and prints the final results —
//
//	lbsbench -remote http://localhost:8080 -method lr -seed 42 \
//	         -aggs '[{"kind":"count"},{"kind":"avg","attr":"enrollment"}]' \
//	         -budget 5000 -trace
//
// With -aggs but no -remote, lbsbench runs the batch locally through
// the multi-aggregate query planner against a generated workload,
// printing the plan (method groups, fused physical aggregates, deduped
// predicates), every checkpoint budget re-allocation, and the
// per-group account —
//
//	lbsbench -aggs '[{"kind":"count"},{"kind":"avg","attr":"enrollment"}]' \
//	         -method auto -budget 5000 -target-ci 0.05
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/stack"
)

type runner func(context.Context, experiments.Config) (*experiments.Figure, error)

// runRemote submits one estimation job to a running lbsserve, streams
// its trace when asked, and prints the final results.
func runRemote(ctx context.Context, baseURL string, spec jobs.Spec, aggsJSON string, trace bool) error {
	if err := json.Unmarshal([]byte(aggsJSON), &spec.Aggregates); err != nil {
		return fmt.Errorf("parsing -aggs: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return err // reject malformed requests before going on the wire
	}
	c, err := httpapi.NewClient(ctx, baseURL, httpapi.Selection{}, nil)
	if err != nil {
		return err
	}
	v, err := c.Estimate(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s (method=%s seed=%d)\n", v.ID, spec.Method, spec.Seed)
	if trace {
		err := c.FollowJobTrace(ctx, v.ID, func(e jobs.TraceEvent) error {
			fmt.Printf("  %-28s samples=%-6d queries=%-8d estimate=%g\n",
				e.Agg, e.Samples, e.Queries, float64(e.Estimate))
			return nil
		})
		// An interrupt mid-stream must still fall through to the
		// cancel path below, so the job stops server-side and its
		// partial results are printed. Any other stream failure must
		// not orphan the job either: cancel best-effort, then report.
		if err != nil && !errors.Is(err, context.Canceled) {
			dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, _ = c.CancelJob(dctx, v.ID)
			cancel()
			return err
		}
	}
	final, err := c.WaitJob(ctx, v.ID, 0)
	if errors.Is(err, context.Canceled) {
		// Interrupted: cancel the job server-side and report partials.
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		final, err = c.CancelJob(dctx, v.ID)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s after %d samples, %d queries\n", final.ID, final.State, final.Samples, final.Queries)
	if final.Error != "" {
		fmt.Printf("  error: %s\n", final.Error)
	}
	if p := final.Plan; p != nil {
		fmt.Printf("plan: %d group(s), %d distinct predicate(s), %d replan(s)\n",
			len(p.Groups), p.Preds, p.Replans)
		for gi, g := range p.Groups {
			fmt.Printf("  group %d: method=%s seed=%d specs=%v samples=%d queries=%d",
				gi, g.Method, g.Seed, g.Specs, g.Samples, g.Queries)
			if g.CIMet {
				fmt.Printf(" ci-met")
			}
			fmt.Printf("\n    fused: %v\n", g.Aggs)
		}
	}
	for _, r := range final.Results {
		fmt.Printf("  %-28s estimate=%-14g ±%g (95%% CI)\n", r.Name, float64(r.Estimate), float64(r.CI95))
	}
	return nil
}

// runPlanLocal routes an -aggs batch through the multi-aggregate query
// planner against a generated workload and prints the planner's
// decisions: the compiled groups, every checkpoint budget
// re-allocation, and the per-group account.
func runPlanLocal(ctx context.Context, cfg experiments.Config, method, aggsJSON, dataset string, samples int, targetCI float64) error {
	var specs []core.AggSpec
	if err := json.Unmarshal([]byte(aggsJSON), &specs); err != nil {
		return fmt.Errorf("parsing -aggs: %w", err)
	}
	plan, err := core.PlanBatch(specs, core.PlanOptions{
		Method:     method,
		Seed:       cfg.Seed,
		MaxQueries: cfg.Budget,
		MaxSamples: samples,
		TargetCI:   targetCI,
		Batch:      cfg.Batch,
	})
	if err != nil {
		return err
	}
	fmt.Printf("plan: %d aggregate(s) → %d group(s), %d distinct predicate(s)\n",
		len(plan.Specs), len(plan.Groups), plan.Preds)
	for gi := range plan.Groups {
		g := &plan.Groups[gi]
		names := make([]string, len(g.Aggs))
		for i := range g.Aggs {
			names[i] = g.Aggs[i].Name
		}
		fmt.Printf("  group %d: method=%s seed=%d cost≈%.1f queries/sample specs=%v\n    fused: %v\n",
			gi, g.Method, g.Seed, g.CostPerSample, g.Specs, names)
	}

	st, err := stack.Spec{Scenario: "schools", N: cfg.N, Seed: cfg.Seed, K: cfg.K, Shards: cfg.Shards, Dataset: dataset}.Build(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("running over %s n=%d k=%d (budget=%d shards=%d)\n",
		st.Name, st.Tuples, cfg.K, cfg.Budget, cfg.Shards)

	br, err := plan.Execute(ctx, st.Querier, nil)
	if err != nil {
		return err
	}
	// The budget decisions, as the checkpoint allocator made them.
	const maxReplanLines = 12
	for i, ev := range br.Replans {
		if i == maxReplanLines {
			fmt.Printf("  … %d more replan(s)\n", len(br.Replans)-maxReplanLines)
			break
		}
		fmt.Printf("  replan %d: remaining=%d →", ev.Round, ev.RemainingQueries)
		for _, a := range ev.Allocs {
			fmt.Printf(" g%d need=%.0f quota=%d", a.Group, a.Need, a.Samples)
		}
		fmt.Println()
	}
	for gi, g := range br.Groups {
		fmt.Printf("group %d [%s]: %d samples, %d queries", gi, g.Method, g.Samples, g.Queries)
		if g.CIMet {
			fmt.Printf(", ci met")
		}
		fmt.Println()
	}
	fmt.Println("results:")
	for _, r := range br.Results {
		fmt.Printf("  %-28s estimate=%-14g ±%g (95%% CI)  samples=%d\n",
			r.Name, r.Estimate, r.CI95, r.Samples)
	}
	fmt.Printf("total: %d samples, %d queries\n", br.Samples, br.Queries)
	return nil
}

// fail reports an error uniformly and exits: an interrupt exits 130
// ("interrupted") whichever mode or experiment was running.
func fail(what string, err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
	os.Exit(1)
}

func main() {
	var (
		exp    = flag.String("experiment", "all", "experiment id: fig11..fig21, table1, live, chaos, or all")
		scale  = flag.String("scale", "quick", `scale preset: "quick" or "paper"`)
		n      = flag.Int("n", 0, "dataset size override")
		runs   = flag.Int("runs", 0, "repetitions override")
		budget = flag.Int64("budget", 0, "per-run query budget override")
		k      = flag.Int("k", 0, "service top-k override")
		seed   = flag.Int64("seed", 0, "base seed override")
		batch  = flag.Int("batch", 0, "samples per oracle round-trip for batch-capable estimators (0/1 = unbatched)")
		shards = flag.Int("shards", 0, "run local experiments against a federated backend of this many in-process spatial shards (0/1 = single service; answers are bit-identical)")

		remote      = flag.String("remote", "", "base URL of an lbsserve to submit one estimation job to (switches lbsbench into remote-client mode)")
		method      = flag.String("method", "lr", "job method: auto | lr | lnr | nno (auto lets the planner's cost model choose)")
		aggs        = flag.String("aggs", `[{"kind":"count"}]`, "job aggregates (JSON array of specs); without -remote, runs the batch through the local query planner")
		samples     = flag.Int("samples", 0, "job max samples (0 = unlimited)")
		targetCI    = flag.Float64("target-ci", 0, "stop once every aggregate's 95% CI half-width ≤ rel × |estimate| (0 = disabled)")
		parallelism = flag.Int("parallelism", 0, "remote job worker parallelism (0/1 = serial)")
		trace       = flag.Bool("trace", false, "stream the remote job's trace to stdout")
		dataset     = flag.String("dataset", "", "with -aggs (local planner mode): run over this dataset file (lbsgen JSON or .lbspack) instead of the generated workload")
	)
	flag.Parse()
	aggsSet := false
	flag.Visit(func(f *flag.Flag) { aggsSet = aggsSet || f.Name == "aggs" })

	// Ctrl-C or SIGTERM cancels the context; in-flight estimation runs
	// stop at the next sample boundary and the command exits promptly
	// instead of grinding through the remaining experiments.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *remote != "" {
		if err := runRemote(ctx, *remote, jobs.Spec{
			Method: *method,
			Seed:   *seed,
			Options: jobs.RunOptions{
				MaxSamples:  *samples,
				MaxQueries:  *budget,
				TargetCI:    *targetCI,
				Parallelism: *parallelism,
				Batch:       *batch,
			},
		}, *aggs, *trace); err != nil {
			fail("remote", err)
		}
		return
	}

	var cfg experiments.Config
	switch *scale {
	case "paper":
		cfg = experiments.Paper()
	case "quick":
		cfg = experiments.Quick()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *n > 0 {
		cfg.N = *n
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *budget > 0 {
		cfg.Budget = *budget
	}
	if *k > 0 {
		cfg.K = *k
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *batch > 1 {
		cfg.Batch = *batch
	}
	if *shards > 1 {
		cfg.Shards = *shards
	}

	// An explicit -aggs without -remote runs the batch through the
	// local multi-aggregate query planner instead of the experiments.
	if aggsSet {
		if err := runPlanLocal(ctx, cfg, *method, *aggs, *dataset, *samples, *targetCI); err != nil {
			fail("plan", err)
		}
		return
	}

	figures := map[string]runner{
		"fig11": experiments.Fig11,
		"fig12": experiments.Fig12,
		"fig13": experiments.Fig13,
		"fig14": experiments.Fig14,
		"fig15": experiments.Fig15,
		"fig16": experiments.Fig16,
		"fig17": experiments.Fig17,
		"fig18": experiments.Fig18,
		"fig19": experiments.Fig19,
		"fig20": experiments.Fig20,
		"fig21": experiments.Fig21,
		"live":  experiments.LiveChurn,
		"chaos": experiments.Chaos,
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for id := range figures {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		ids = append(ids, "table1", "mse")
	}

	for _, id := range ids {
		start := time.Now()
		switch {
		case id == "table1":
			rows, err := experiments.Table1(ctx, cfg)
			if err != nil {
				fail(id, err)
			}
			experiments.WriteTable1(os.Stdout, rows)
		case id == "mse":
			rows, err := experiments.MSEDecomposition(ctx, cfg)
			if err != nil {
				fail(id, err)
			}
			experiments.WriteMSE(os.Stdout, rows)
		case figures[id] != nil:
			fig, err := figures[id](ctx, cfg)
			if err != nil {
				fail(id, err)
			}
			if err := fig.Write(os.Stdout); err != nil {
				fail(id, err)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want fig11..fig21, table1, mse, live, chaos, all)\n", id)
			os.Exit(2)
		}
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
