package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// tinyCfg is the smallest configuration that still exercises every
// code path; experiment smoke tests must stay fast.
func tinyCfg() Config {
	return Config{N: 120, Runs: 2, Budget: 2500, K: 3, Seed: 5}
}

func checkFigure(t *testing.T, fig *Figure, wantSeries int) {
	t.Helper()
	if fig == nil {
		t.Fatal("nil figure")
	}
	if len(fig.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", fig.ID, len(fig.Series), wantSeries)
	}
	for _, s := range fig.Series {
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			t.Fatalf("%s/%s: malformed series (%d, %d)", fig.ID, s.Name, len(s.X), len(s.Y))
		}
	}
	var sb strings.Builder
	if err := fig.Write(&sb); err != nil {
		t.Fatalf("%s: write: %v", fig.ID, err)
	}
	if !strings.Contains(sb.String(), fig.ID) {
		t.Errorf("%s: rendered table missing the figure id", fig.ID)
	}
}

func TestFig11(t *testing.T) {
	fig, err := Fig11(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 1)
	// Heavy-tail sanity: max must dominate the median.
	y := fig.Series[0].Y
	if y[5] <= y[1] {
		t.Errorf("cell-size distribution not skewed: %v", y)
	}
}

func TestFig12(t *testing.T) {
	fig, err := Fig12(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
	// The LR-AGG trace must converge near the truth at the end.
	truth := 120.0
	lr := fig.Series[1]
	last := lr.Y[len(lr.Y)-1]
	if math.IsNaN(last) || math.Abs(last-truth)/truth > 0.5 {
		t.Errorf("LR trace end %v far from truth %v", last, truth)
	}
}

func TestFig13(t *testing.T) {
	fig, err := Fig13(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 4)
}

func TestFig14(t *testing.T) {
	fig, err := Fig14(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
	// Shape check at a loose error level: AGG should not cost more
	// than NNO (series 0 = NNO, 1 = LR-AGG).
	nno, lr := fig.Series[0], fig.Series[1]
	// x = 0.3 is index 3 on the default grid.
	if !math.IsNaN(nno.Y[3]) && !math.IsNaN(lr.Y[3]) && lr.Y[3] > nno.Y[3]*2 {
		t.Errorf("LR-AGG cost %v unexpectedly above NNO %v at rel-error 0.3", lr.Y[3], nno.Y[3])
	}
}

func TestFig15(t *testing.T) {
	fig, err := Fig15(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
}

func TestFig16(t *testing.T) {
	fig, err := Fig16(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
}

func TestFig17(t *testing.T) {
	fig, err := Fig17(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
}

func TestFig18(t *testing.T) {
	fig, err := Fig18(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
	// Flat-ish scaling: cost at 100 % must stay within an order of
	// magnitude of cost at 25 % for LR-AGG (series index 1).
	lr := fig.Series[1]
	if lr.Y[3] > lr.Y[0]*10 {
		t.Errorf("query cost exploded with database size: %v", lr.Y)
	}
}

func TestFig19(t *testing.T) {
	cfg := tinyCfg()
	cfg.K = 3
	fig, err := Fig19(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	if len(fig.Series[0].X) != cfg.K+1 {
		t.Errorf("fig19 ticks: %v", fig.Series[0].X)
	}
}

func TestFig20(t *testing.T) {
	fig, err := Fig20(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 5)
}

func TestFig21(t *testing.T) {
	fig, err := Fig21(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	// Cumulative curves must be non-decreasing.
	for _, s := range fig.Series {
		for i := 1; i < len(s.Y); i++ {
			if !math.IsNaN(s.Y[i]) && !math.IsNaN(s.Y[i-1]) && s.Y[i] < s.Y[i-1]-1e-12 {
				t.Errorf("%s: cumulative fraction decreased at %d", s.Name, i)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	cfg := tinyCfg()
	cfg.Budget = 6000
	rows, err := Table1(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("table1 rows: %d", len(rows))
	}
	var sb strings.Builder
	WriteTable1(&sb, rows)
	out := sb.String()
	for _, want := range []string{"Google Places", "WeChat", "Weibo", "male fraction"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
	// The flagship estimate (Starbucks count) should be within 50 % at
	// tiny scale.
	if rows[0].Truth <= 0 || rows[0].RelErr > 0.5 {
		t.Errorf("starbucks row implausible: %+v", rows[0])
	}
}

func TestTraceSetHelpers(t *testing.T) {
	ts := &traceSet{
		name:  "x",
		truth: 100,
		traces: [][]core.TracePoint{
			{
				{Queries: 10, Estimate: 300},
				{Queries: 20, Estimate: 120},
				{Queries: 30, Estimate: 105},
				{Queries: 40, Estimate: 102},
			},
		},
	}
	costs := ts.costToReach(0.1)
	if len(costs) != 1 || costs[0] != 30 {
		t.Errorf("costToReach: %v", costs)
	}
	// 0.5 error reached at 20 queries.
	if c := ts.costToReach(0.21); c[0] != 20 {
		t.Errorf("costToReach(0.21): %v", c)
	}
	// Never converged: censored at final queries.
	if c := ts.costToReach(0.001); c[0] != 40 {
		t.Errorf("censored cost: %v", c)
	}
	s := ts.meanEstimateSeries([]float64{5, 25, 45})
	if !math.IsNaN(s.Y[0]) || s.Y[1] != 120 || s.Y[2] != 102 {
		t.Errorf("meanEstimateSeries: %v", s.Y)
	}
}

func TestConfigs(t *testing.T) {
	p, q := Paper(), Quick()
	if p.N <= q.N || p.Runs <= q.Runs || p.Budget <= q.Budget {
		t.Errorf("paper scale should dominate quick scale: %+v %+v", p, q)
	}
}

func TestMSEDecomposition(t *testing.T) {
	rows, err := MSEDecomposition(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	var sb strings.Builder
	WriteMSE(&sb, rows)
	if !strings.Contains(sb.String(), "LR-LBS-AGG") {
		t.Errorf("missing algorithm row")
	}
	for _, r := range rows {
		if r.Eval.Runs != 2 || r.Eval.MeanQueries <= 0 {
			t.Errorf("%s eval: %+v", r.Algorithm, r.Eval)
		}
	}
}

// TestFiguresFederatedIdentical checks Config.Shards' promise: the
// figures run over a federation of in-process shards equal the
// single-service ones bit for bit. The %v renderings are compared,
// which round-trip every float and treat a NaN gap as equal to itself.
func TestFiguresFederatedIdentical(t *testing.T) {
	ctx := context.Background()
	run := func(cfg Config) string {
		var out []any
		for _, f := range []func(context.Context, Config) (*Figure, error){Fig12, Fig17} {
			fig, err := f(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *fig)
		}
		rows, err := MSEDecomposition(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", append(out, rows))
	}
	single, fed := tinyCfg(), tinyCfg()
	single.Shards, fed.Shards = 1, 4
	if got, want := run(fed), run(single); got != want {
		t.Errorf("Shards: 4 differs from Shards: 1:\n got %s\nwant %s", got, want)
	}
}

// TestLiveChurn smoke-tests the churn experiment: well-formed figure,
// finite errors, and exactly zero population drift at zero churn (the
// live fast path never mutates without ops).
func TestLiveChurn(t *testing.T) {
	cfg := tinyCfg()
	cfg.Budget = 1200
	fig, err := LiveChurn(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	errs, drift := fig.Series[0], fig.Series[1]
	for i, y := range errs.Y {
		if math.IsNaN(y) || math.IsInf(y, 0) || y < 0 {
			t.Errorf("rate %g: error %g", errs.X[i], y)
		}
	}
	if drift.Y[0] != 0 {
		t.Errorf("population drift at zero churn: %g", drift.Y[0])
	}
}

// TestFig17Table1Pinned pins the two experiments whose aggregates carry
// a location condition — Fig17's in-Austin AVG and Table1's open-Sunday
// Austin count — bit for bit at tinyCfg. The values were recorded when
// the conditions were hand-written closures; the declarative InRect
// form must reproduce them exactly.
func TestFig17Table1Pinned(t *testing.T) {
	fig, err := Fig17(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	wantFig := map[string][]float64{
		"LR-LBS-NNO":  {35, 35, 35, 35, 35, 229.5, 1117.5},
		"LR-LBS-AGG":  {20, 20, 20, 20, 36, 73.5, 264.5},
		"LNR-LBS-AGG": {377, 377, 377, 377, 377, 825, 1668},
	}
	if len(fig.Series) != len(wantFig) {
		t.Fatalf("fig17: %d series, want %d", len(fig.Series), len(wantFig))
	}
	for _, s := range fig.Series {
		if want := wantFig[s.Name]; !reflect.DeepEqual(s.Y, want) {
			t.Errorf("fig17 %s: %v, want %v", s.Name, s.Y, want)
		}
	}
	if want := "ground truth AVG = 3.8471 over 51 restaurants"; fig.Notes[0] != want {
		t.Errorf("fig17 note %q, want %q", fig.Notes[0], want)
	}

	rows, err := Table1(context.Background(), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []Table1Row{
		{LBS: "Google Places", Aggregate: "COUNT(Starbucks in US)", Estimate: 117.49479476336073, Truth: 120, RelErr: 0.02087671030532725, Budget: 500},
		{LBS: "Google Places", Aggregate: "COUNT(restaurants in Austin open Sundays)", Estimate: 14.752864188047662, Truth: 15, RelErr: 0.01647572079682256, Budget: 506},
		{LBS: "WeChat", Aggregate: "COUNT(users)", Estimate: 68.36964893448969, Truth: 120, RelErr: 0.43025292554591926, Budget: 1158},
		{LBS: "WeChat", Aggregate: "male fraction", Estimate: 0.8503232457361469, Truth: 0.6916666666666667, RelErr: 0.22938300588358596, Budget: 1158},
		{LBS: "Weibo", Aggregate: "COUNT(users)", Estimate: 194.61991275824374, Truth: 120, RelErr: 0.6218326063186979, Budget: 1356},
		{LBS: "Weibo", Aggregate: "male fraction", Estimate: 0.8066732485739191, Truth: 0.48333333333333334, RelErr: 0.6689791349805222, Budget: 1356},
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Errorf("table1 rows:\n got %+v\nwant %+v", rows, wantRows)
	}
}

// TestFig19Fig20Pinned pins the two figures that compare adaptive h
// with fixed h bit for bit: every series at tinyCfg, and the LR series
// at Quick scale too, because at tinyCfg the adaptive rule picks h = 1
// for every tuple. Their LR rows set FixedH explicitly (adaptive through
// lrSpec), so the library's default h must not move them.
func TestFig19Fig20Pinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		run  func(context.Context, Config) (*Figure, error)
		want map[string][]float64
	}{
		{tinyCfg(), Fig19, map[string][]float64{
			"LR-LBS-AGG":  {1808, 2341.5, 2512, 1808},
			"LNR-LBS-AGG": {2677, 4616.5, 2716.5, 2677},
		}},
		{tinyCfg(), Fig20, map[string][]float64{
			"LR-LBS-AGG-0": {2260, 2390.5, 2505, 2505, 2505, 2505, 2505},
			"LR-LBS-AGG-1": {2230, 2356.5, 2510.5, 2510.5, 2510.5, 2510.5, 2510.5},
			"LR-LBS-AGG-2": {1096.5, 1224.5, 1530.5, 1966, 2326, 2501, 2501},
			"LR-LBS-AGG-3": {933, 1021, 1150.5, 1326, 1889, 2165, 2500},
			"LR-LBS-AGG":   {168.5, 179.5, 202.5, 428, 933.5, 1808, 2504.5},
		}},
		{Quick(), Fig19, map[string][]float64{
			"LR-LBS-AGG": {3499.3333333333335, 3815.6666666666665, 4022.3333333333335, 4094.3333333333335, 4213.666666666667, 4011.6666666666665},
		}},
		{Quick(), Fig20, map[string][]float64{
			"LR-LBS-AGG-2": {926.6666666666666, 1073.6666666666667, 1239, 1826, 2407.6666666666665, 3722.3333333333335, 3808.3333333333335},
			"LR-LBS-AGG-3": {1068, 1395.3333333333333, 1525.6666666666667, 2126.6666666666665, 3087, 3881.6666666666665, 3957.6666666666665},
			"LR-LBS-AGG":   {349, 546.3333333333334, 716.6666666666666, 945.3333333333334, 2821.3333333333335, 4011.6666666666665, 4011.6666666666665},
		}},
	} {
		fig, err := tc.run(context.Background(), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string][]float64, len(fig.Series))
		for _, s := range fig.Series {
			got[s.Name] = s.Y
		}
		for name, want := range tc.want {
			if !reflect.DeepEqual(got[name], want) {
				t.Errorf("%s (N = %d) %s: %v, want %v", fig.ID, tc.cfg.N, name, got[name], want)
			}
		}
	}
}
