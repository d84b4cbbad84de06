// Package core implements the paper's contribution: aggregate
// estimation over location based services through their restrictive
// kNN interfaces.
//
//   - LRAggregator is Algorithm LR-LBS-AGG (§3): completely unbiased
//     SUM/COUNT estimation over location-returned interfaces via exact
//     (top-k) Voronoi-cell computation, with the four error-reduction
//     devices of §3.2 (faster initialization, leveraging history,
//     adaptive top-h variance reduction, and Monte-Carlo upper/lower
//     bound confirmation).
//   - LNRAggregator is Algorithm LNR-LBS-AGG (§4): estimation over
//     rank-only interfaces, inferring Voronoi cells to arbitrary
//     precision from rank flips alone, handling top-k concavity
//     (Lemma 1), and inferring tuple positions (§4.3).
//   - NNOBaseline is the prior art LR-LBS-NNO (Dalvi et al., KDD'11),
//     reimplemented as the evaluation baseline.
//
// The estimators never touch the hidden database directly: all access
// goes through the lbs.Service query interface, and the number of
// queries issued is the cost metric throughout.
package core

import (
	"context"
	"math"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// Oracle is the query surface the estimators run against: the
// restrictive kNN interface of a location based service. The
// in-process simulator (*lbs.Service) implements it; so can adapters
// over real provider APIs (see internal/httpapi for an HTTP
// implementation). Every query takes a context so that remote
// adapters can cancel in-flight requests and honor deadlines; the
// in-process simulator merely checks ctx between queries.
// Implementations must be safe for concurrent use (Run's
// parallel mode issues queries from several goroutines).
type Oracle interface {
	// QueryLR answers a location-returned kNN query.
	QueryLR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error)
	// QueryLNR answers a rank-only kNN query.
	QueryLNR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LNRRecord, error)
	// Bounds returns the coverage bounding box (the paper's region B).
	Bounds() geom.Rect
	// K returns the interface's top-k.
	K() int
	// QueryCount returns the number of queries answered so far — the
	// cost metric of the whole paper.
	QueryCount() int64
}

// Record is the estimator-visible view of a returned tuple. For LR
// interfaces HasLoc is true and Loc carries the returned location; for
// LNR interfaces HasLoc is false unless the aggregator localized the
// tuple (§4.3) because the aggregate needs it.
type Record struct {
	ID       int64
	HasLoc   bool
	Loc      geom.Point
	Name     string
	Category string
	Attrs    map[string]float64
	Tags     map[string]string
}

// Attr returns a numeric attribute or 0.
func (r Record) Attr(name string) float64 {
	if r.Attrs == nil {
		return 0
	}
	return r.Attrs[name]
}

// Tag returns a categorical attribute or "".
func (r Record) Tag(name string) string {
	if r.Tags == nil {
		return ""
	}
	return r.Tags[name]
}

// Aggregate is a SUM/COUNT-style aggregate: the estimate of
// Σ_t Value(t) over all tuples in the hidden database (selection
// conditions are folded into Value returning 0, the post-processing
// scheme of §5.1). Build one with AggSpec.Compile; AVG aggregates are
// the ratio of two (see RatioOf and PlanBatch).
type Aggregate struct {
	// Name labels the aggregate in results.
	Name string
	// Value evaluates the aggregated quantity on a returned tuple:
	// 1 for COUNT(*), the attribute for SUM(attr), an indicator for
	// COUNT with a condition, etc. It is a function of its record
	// alone, and a run calls it only on the goroutine that folds the
	// samples (the one that called Run or Execute), never from a
	// parallel run's workers.
	Value func(Record) float64
	// NeedsLocation marks aggregates whose Value reads Loc (selection
	// conditions on tuple location). Over LNR interfaces the
	// aggregator first infers the tuple position, spending extra
	// queries (§4.3); over LR interfaces the location is free.
	NeedsLocation bool
}

// Sample is the outcome of one point sample (Estimator.Step): the
// records that contribute to it, in the order the estimator weighted
// them. A sample's weights depend on the interface, the sampler and
// the options, never on the aggregate (§5.1 folds a selection into
// Value), so one sample answers any aggregate (see Value); an empty
// sample estimates 0.
type Sample []WeightedRecord

// WeightedRecord is one record of a Sample with its Horvitz–Thompson
// weight: it contributes Value(rec)·W, or Value(rec)/W when Div is set
// (W is then the record's selection probability). Keeping the
// operation keeps each estimator's float operations as it performs
// them: LR multiplies by 1/p̂ or r/mass(V′), LNR and NNO divide by p.
type WeightedRecord struct {
	Record
	W   float64
	Div bool
}

// Value folds the sample for one aggregate: Σ_i agg.Value(rec_i) op
// w_i, in record order — the sample's unbiased per-sample estimate of
// agg.
func (s Sample) Value(agg Aggregate) float64 {
	var v float64
	for _, r := range s {
		if x := agg.Value(r.Record); r.Div {
			v += x / r.W
		} else {
			v += x * r.W
		}
	}
	return v
}

// recordOfLR converts an LR result row.
func recordOfLR(r lbs.LRRecord) Record {
	return Record{
		ID: r.ID, HasLoc: true, Loc: r.Loc,
		Name: r.Name, Category: r.Category, Attrs: r.Attrs, Tags: r.Tags,
	}
}

// recordOfLNR converts an LNR result row (no location).
func recordOfLNR(r lbs.LNRRecord) Record {
	return Record{
		ID:   r.ID,
		Name: r.Name, Category: r.Category, Attrs: r.Attrs, Tags: r.Tags,
	}
}

// Accumulator keeps running mean and variance of per-sample estimates
// (Welford's algorithm) so results can report Bessel-corrected sample
// variance and confidence intervals, as §2.3 prescribes.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one per-sample estimate into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples.
func (a *Accumulator) N() int { return a.n }

// Mean returns the current estimate (the sample mean).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the Bessel-corrected sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.Variance() / float64(a.n))
}

// CI95 returns the half-width of the normal-approximation 95 %
// confidence interval.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// TracePoint is one point of the estimate-versus-cost trace (the
// Figure 12 curves).
type TracePoint struct {
	Queries  int64
	Samples  int
	Estimate float64
	// Degraded marks a sample whose queries were answered by a partial
	// federation — a shard was down or skipped, so the merged answers
	// may have missed candidates. The estimate remains usable; the flag
	// lets consumers weigh or audit the contaminated stretch of the
	// trace.
	Degraded bool
}

// Result is the outcome of an estimation run.
type Result struct {
	// Name of the aggregate.
	Name string
	// Estimate is the final point estimate.
	Estimate float64
	// StdErr is the standard error of the estimate computed from the
	// Bessel-corrected sample variance.
	StdErr float64
	// CI95 is the 95 % confidence half-width.
	CI95 float64
	// Samples is the number of (completed) random point samples.
	Samples int
	// Queries is the number of kNN queries spent.
	Queries int64
	// DegradedSamples counts samples drawn while the service answered
	// degraded (see TracePoint.Degraded); 0 for a healthy run.
	DegradedSamples int
	// Trace records the running estimate after every sample.
	Trace []TracePoint
}

// RelErr returns |estimate − truth| / truth, the paper's accuracy
// metric.
func (r Result) RelErr(truth float64) float64 {
	if truth == 0 {
		return math.Abs(r.Estimate)
	}
	return math.Abs(r.Estimate-truth) / math.Abs(truth)
}

// RatioOf combines two results from the same run into an AVG-style
// ratio estimate (AVG = SUM/COUNT, §1.3). The standard error is the
// first-order delta-method approximation treating the two estimates as
// independent (a conservative simplification; the paper only reports
// point estimates for AVG). Both halves come from one run, so the
// ratio keeps the run's degraded-sample count, and a ratio trace point
// is degraded when either half's point is.
func RatioOf(num, den Result) Result {
	out := Result{
		Name:            num.Name + "/" + den.Name,
		Samples:         num.Samples,
		Queries:         num.Queries,
		DegradedSamples: num.DegradedSamples,
	}
	if den.Estimate == 0 {
		// The ratio is undefined, and so are its error bars: a numeric
		// StdErr/CI95 of 0 would read as "exactly known" on the wire.
		// NaN marshals to null through jobs.JSONFloat, so clients see
		// the whole result as undefined, never NaN/Inf or a fake CI.
		out.Estimate = math.NaN()
		out.StdErr = math.NaN()
		out.CI95 = math.NaN()
		return out
	}
	r := num.Estimate / den.Estimate
	out.Estimate = r
	// Var(N/D) ≈ r²[(σN/N)² + (σD/D)²]
	var rel2 float64
	if num.Estimate != 0 {
		rel2 += (num.StdErr / num.Estimate) * (num.StdErr / num.Estimate)
	}
	rel2 += (den.StdErr / den.Estimate) * (den.StdErr / den.Estimate)
	out.StdErr = math.Abs(r) * math.Sqrt(rel2)
	out.CI95 = 1.96 * out.StdErr
	// Ratio trace from the component traces.
	n := len(num.Trace)
	if len(den.Trace) < n {
		n = len(den.Trace)
	}
	for i := 0; i < n; i++ {
		tp := num.Trace[i]
		if d := den.Trace[i].Estimate; d != 0 {
			out.Trace = append(out.Trace, TracePoint{
				Queries: tp.Queries, Samples: tp.Samples, Estimate: tp.Estimate / d,
				Degraded: tp.Degraded || den.Trace[i].Degraded,
			})
		}
	}
	return out
}
