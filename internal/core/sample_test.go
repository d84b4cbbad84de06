package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// sampleTap records the samples of the estimator it wraps.
type sampleTap struct {
	Estimator
	samples []Sample
}

func (e *sampleTap) Step(ctx context.Context, needLoc bool) (Sample, error) {
	sample, err := e.Estimator.Step(ctx, needLoc)
	if err == nil {
		e.samples = append(e.samples, sample)
	}
	return sample, err
}

// TestOneSampleAnswersAnyBatch: a sample's weighted records answer an
// aggregate batch the run never saw. The samples of a capped run,
// folded for a second batch, must equal a fresh run of that batch at
// the same seed and cap bit for bit — for LR, and for LNR with
// location-free aggregates (a location need changes LNR's queries).
func TestOneSampleAnswersAnyBatch(t *testing.T) {
	const samples = 60
	first := aggsOf(t, CountSpec())
	second := aggsOf(t,
		SumSpec("weight"),
		CountSpec().WithWhere(TagEq("flag", "yes")),
		SumSpec("weight").WithWhere(AttrCmp("weight", CmpGE, 5)),
	)
	lrOpts := DefaultLROptions(7)
	lrOpts.FixedH = 0 // adaptive h: a sample may weight several records
	cases := []struct {
		name string
		est  func(svc Oracle) Estimator
		loc  bool
	}{
		{"lr", func(svc Oracle) Estimator { return NewLRAggregator(svc, lrOpts) }, true},
		{"lnr", func(svc Oracle) Estimator { return NewLNRAggregator(svc, LNROptions{H: 2, Seed: 7}) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batch := second
			if tc.loc {
				batch = append(batch, aggsOf(t, CountSpec().WithWhere(InRect(geom.NewRect(geom.Pt(0, 0), geom.Pt(50, 60)))))...)
			}
			svc, db := smallService(t, 300, 5, 3)
			tap := &sampleTap{Estimator: tc.est(svc)}
			if _, err := Run(context.Background(), tap, first, WithMaxSamples(samples)); err != nil {
				t.Fatal(err)
			}
			fresh, err := Run(context.Background(), tc.est(lbs.NewService(db, lbs.Options{K: 5})), batch, WithMaxSamples(samples))
			if err != nil {
				t.Fatal(err)
			}
			if len(tap.samples) != samples {
				t.Fatalf("tapped %d samples, want %d", len(tap.samples), samples)
			}
			multi := 0
			for _, s := range tap.samples {
				if len(s) > 1 {
					multi++
				}
			}
			if multi == 0 {
				t.Errorf("no sample weighted more than one record")
			}
			for j, agg := range batch {
				var acc Accumulator
				for _, s := range tap.samples {
					acc.Add(s.Value(agg))
				}
				got, want := resultOfAcc(agg.Name, &acc, 0), fresh[j]
				if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) ||
					math.Float64bits(got.StdErr) != math.Float64bits(want.StdErr) || got.Samples != want.Samples {
					t.Errorf("%s: folded %v ± %v over %d samples, fresh run %v ± %v over %d",
						agg.Name, got.Estimate, got.StdErr, got.Samples, want.Estimate, want.StdErr, want.Samples)
				}
			}
		})
	}
}
