package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// workloadRunner is one workload (traffic mix) of the benchmark. Its
// exported fields are its configuration, recorded in every result.
type workloadRunner interface {
	name() string
	why() string
	// prepare generates the workload's inputs from o.seed: the dataset
	// (written into dir) and the request schedules.
	prepare(dir string, o runOptions) error
	// stack returns the child configuration for one pass; dir is fresh
	// and the pass may write there.
	stack(data, dir string) (stackConfig, error)
	// drive runs warm-up and measurement against the pass's child,
	// filling the pass's samples, gates and extra metrics.
	drive(ctx context.Context, p *pass) error
}

// runOptions are the settings of one benchmark invocation.
type runOptions struct {
	seed    int64
	seconds time.Duration // measured time per pass
	trace   bool
	setups  int           // child starts per pass; setup_s is their median
	warmup  time.Duration // untimed load before measurement
	outDir  string
	ref     *refMeter // nil without a keep-awake child
}

// pass is one child's lifetime: set-ups, warm-up, measurement, checks.
type pass struct {
	opts   runOptions
	base   string       // the child's URL
	load   *http.Client // the workload's connections
	tr     *tracer      // client-side tracer; nil untraced
	setups []float64    // seconds

	mark, end childStats
	start     time.Time
	elapsed   time.Duration
	client    []span // client spans of the measured phase

	ops    []sample // the workload's operations in the measured phase
	writes int      // mutations among ops (live-ingest)

	// setupRef is the reference cost while the children started; cpuAt
	// and refAt are the child's CPU seconds at every window boundary of
	// the measured phase and the reference cost over each window (see
	// calibratedCPU).
	setupRef refReading
	cpuAt    []float64
	refAt    []refReading
	sampled  sync.WaitGroup

	answers map[int]uint64
	jobs    []jobRecord
	gates   []gate
	info    map[string]metric
}

// jobRecord is one estimation job's cost account, for the core layer.
type jobRecord struct {
	Samples int
	Queries int64
	// Busy is the job's wall time times its worker count: the time its
	// estimator goroutines existed (server-side jobs only).
	Busy time.Duration
}

type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (p *pass) check(name string, ok bool, format string, args ...any) {
	p.gates = append(p.gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (p *pass) setInfo(name, unit string, v float64, n int) {
	p.info[name] = metric{Value: v, Unit: unit, N: n}
}

// newLoadClient returns a client limited to conns connections to the
// child, traced when tr is set.
func newLoadClient(conns int, tr *tracer) *http.Client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	var rt http.RoundTripper = t
	if tr != nil {
		rt = &tracingTransport{base: t, t: tr}
	}
	return &http.Client{Transport: rt}
}

// control POSTs to one of the child's /bench/ endpoints.
func (p *pass) control(ctx context.Context, path string) (childStats, error) {
	var st childStats
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// beginMeasure snapshots the child's counters, starts both tracers and
// starts sampling the child's CPU time and the reference cost at the
// boundaries of measureWindows equal windows of a phase of the given
// length; endMeasure closes the last window.
func (p *pass) beginMeasure(ctx context.Context, phase time.Duration) error {
	st, err := p.control(ctx, "/bench/mark")
	if err != nil {
		return err
	}
	p.mark = st
	if p.tr != nil {
		p.tr.start()
	}
	p.opts.ref.read() // opens the first window's reading
	p.start = time.Now()
	p.cpuAt = []float64{st.CPUSeconds}
	p.sampled.Add(1)
	go func() {
		defer p.sampled.Done()
		for k := 1; k < measureWindows; k++ {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Until(p.start.Add(time.Duration(k) * phase / measureWindows))):
			}
			cpu, err := p.childCPU(ctx)
			if err != nil {
				return
			}
			p.cpuAt = append(p.cpuAt, cpu)
			p.refAt = append(p.refAt, p.opts.ref.read())
		}
	}()
	return nil
}

// childCPU reads the child's CPU seconds.
func (p *pass) childCPU(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/bench/cpu", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(b), 64)
}

// endMeasure stops both tracers, closes the last window and snapshots
// the counters again.
func (p *pass) endMeasure(ctx context.Context) error {
	p.elapsed = time.Since(p.start)
	p.sampled.Wait()
	ref := p.opts.ref.read()
	if p.tr != nil {
		p.client, _ = p.tr.stop()
	}
	st, err := p.control(ctx, "/bench/end")
	if err != nil {
		return err
	}
	p.end = st
	p.cpuAt = append(p.cpuAt, st.CPUSeconds)
	p.refAt = append(p.refAt, ref)
	return nil
}

// get fetches path from the child on the load connections.
func (p *pass) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.load.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// runPass starts the child opts.setups times (keeping the last), lets
// the workload drive it, and stops it.
func runPass(ctx context.Context, w workloadRunner, data string, o runOptions, traced bool) (*pass, error) {
	dir, err := os.MkdirTemp(o.outDir, "pass-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg, err := w.stack(data, dir)
	if err != nil {
		return nil, err
	}
	cfg.Trace = traced
	p := &pass{opts: o, answers: map[int]uint64{}, info: map[string]metric{}}
	if traced {
		p.tr = newTracer(1 << 19)
	}
	var child *proc
	o.ref.read() // opens the set-up reading
	for i := 0; i < max(o.setups, 1); i++ {
		if child != nil {
			child.stop()
		}
		c, d, err := startChild(ctx, cfg)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, d.Seconds())
		child = c
	}
	p.setupRef = o.ref.read()
	defer child.stop()
	p.base = child.base
	if err := w.drive(ctx, p); err != nil {
		return nil, err
	}
	return p, ctx.Err()
}

// metric is one reported number: its value, unit and the samples
// behind it; Pct names the percentile a tail timing reports.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Pct   float64 `json:"pct,omitempty"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names (a test keeps the two in step).
type metricDef struct{ Name, Unit string }

// endToEndDefs are the user-visible metrics, reported on every
// workload by the untraced pass.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"lbs_queries_per_op", "queries"},
	{"server_cpu_ms_per_op", "ms"},
}

// endToEnd computes a pass's end-to-end metrics, with the two timings
// calibrated to reference speed (see calibratedCPU), and adds to info
// what they were calibrated from, and the median latency, which is
// reported but not gated: on a shared two-core virtual machine it
// drifts from run to run by more than the largest bound (see README).
func endToEnd(p *pass, info map[string]metric) map[string]metric {
	n := len(p.ops)
	ops := math.Max(float64(n), 1)
	cpu, ref := p.calibratedCPU()
	setup := median(p.setups)
	info["latency_p50_ms"] = metric{Value: percentile(latencies(p.ops), 50), Unit: "ms", N: n, Pct: 50}
	info["server_cpu_ms_per_op_raw"] = metric{Value: (p.end.CPUSeconds - p.mark.CPUSeconds) * 1000 / ops, Unit: "ms", N: n}
	info["setup_s_raw"] = metric{Value: setup, Unit: "s", N: len(p.setups)}
	info["ref_unit_us"] = metric{Value: ref, Unit: "us", N: len(p.refAt)}
	info["ref_unit_setup_us"] = metric{Value: p.setupRef.US, Unit: "us", N: p.setupRef.Batches}
	return map[string]metric{
		"setup_s":              {Value: setup * refScale(p.setupRef, ref), Unit: "s", N: len(p.setups)},
		"peak_rss_mb":          {Value: p.end.MaxRSSMB, Unit: "MB", N: 1},
		"lbs_queries_per_op":   {Value: float64(p.end.Below-p.mark.Below) / ops, Unit: "queries", N: n},
		"server_cpu_ms_per_op": {Value: cpu / ops, Unit: "ms", N: n},
	}
}

// calibratedCPU returns the child's CPU time over the measured phase in
// milliseconds at reference speed: each window's CPU time scaled by
// refScale of that window's reference cost, a window with too few
// batches taking the median cost of the others, which it also returns
// (0 without readings, when the times stay as measured). A shared
// virtual machine's speed drifts in episodes of seconds to minutes that
// slow all work by up to half; the reference work, measured on the
// same CPUs in the same windows, slows with it.
func (p *pass) calibratedCPU() (ms, ref float64) {
	var costs []float64
	for _, r := range p.refAt {
		if r.Batches >= refMinBatches {
			costs = append(costs, r.US)
		}
	}
	ref = median(costs)
	for k, r := range p.refAt {
		ms += (p.cpuAt[k+1] - p.cpuAt[k]) * 1000 * refScale(r, ref)
	}
	return ms, ref
}

// tails reports a pass's latency tail: p90, p99 and the highest
// percentile with at least 10 samples beyond it. On a shared two-core
// host they are set by GC pauses, compactions and host stalls.
func tails(p *pass, info map[string]metric) {
	lat := latencies(p.ops)
	for _, pct := range []float64{90, 99} {
		info[fmt.Sprintf("latency_p%g_ms", pct)] = metric{Value: percentile(lat, pct), Unit: "ms", N: len(lat), Pct: pct}
	}
	pct := tailPercentile(len(lat))
	info["latency_tail_ms"] = metric{Value: percentile(lat, pct), Unit: "ms", N: len(lat), Pct: pct}
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Config    workloadRunner     `json:"config"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Info      map[string]metric  `json:"info,omitempty"`
	Layers    map[string]metric  `json:"layers,omitempty"`
	Overhead  map[string]float64 `json:"trace_overhead,omitempty"`
	Gates     []gate             `json:"gates"`
}

// runWorkload runs one workload: an untraced pass for the end-to-end
// metrics and, with opts.trace, a traced pass at the same seed for the
// per-layer metrics, the tracing overhead and the transparency gate.
func runWorkload(ctx context.Context, w workloadRunner, o runOptions) (*workloadResult, error) {
	dir, err := os.MkdirTemp(o.outDir, w.name()+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := w.prepare(dir, o); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name(), err)
	}
	plain, err := runPass(ctx, w, dir, o, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	res := &workloadResult{
		Workload: w.name(), Why: w.why(), Config: w,
		Attempted: len(plain.ops), Failed: failures(plain.ops),
		Metrics: endToEnd(plain, plain.info), Info: plain.info, Gates: plain.gates,
	}
	tails(plain, res.Info)
	if o.trace {
		traced, err := runPass(ctx, w, dir, o, true)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name(), err)
		}
		res.Layers = layerMetrics(traced)
		res.Attempted, res.Failed = len(traced.ops), failures(traced.ops)
		tm := endToEnd(traced, traced.info)
		res.Overhead = map[string]float64{"latency_p50_ms": traced.info["latency_p50_ms"].Value - res.Info["latency_p50_ms"].Value}
		for name, m := range tm {
			res.Overhead[name] = m.Value - res.Metrics[name].Value
		}
		for _, g := range traced.gates {
			g.Name = "traced " + g.Name
			res.Gates = append(res.Gates, g)
		}
		res.Gates = append(res.Gates, sameAnswers(plain.answers, traced.answers))
		if err := writeTrace(filepath.Join(o.outDir, w.name()+".trace.json"), traced); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && failures(plain.ops) == 0 && res.Attempted > 0
	for _, g := range res.Gates {
		res.Correct = res.Correct && g.OK
	}
	return res, nil
}

// sameAnswers is the transparency gate: every answer or estimate both
// passes recorded (keyed by request or job index) must be bit-identical.
func sameAnswers(a, b map[int]uint64) gate {
	common, diff := 0, 0
	for k, v := range a {
		if w, ok := b[k]; ok {
			common++
			if v != w {
				diff++
			}
		}
	}
	return gate{
		Name:   "traced answers identical",
		OK:     common > 0 && diff == 0,
		Detail: fmt.Sprintf("%d common, %d differ", common, diff),
	}
}

// writeTrace dumps a traced pass's spans: client spans from this
// process, server spans from the child.
func writeTrace(path string, p *pass) error {
	b, err := json.Marshal(map[string][]span{"client": p.client, "server": p.end.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
