package core

import (
	"context"
	"testing"

	"repro/internal/lbs"
)

func TestNNOEstimatesCount(t *testing.T) {
	db := smallService2(60, 301)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	nno := NewNNOBaseline(svc, NNOOptions{Seed: 1})
	res, err := nno.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(150))
	if err != nil {
		t.Fatal(err)
	}
	// NNO is biased; accept a loose band around the truth.
	truth := float64(db.Len())
	if rel := res[0].RelErr(truth); rel > 0.6 {
		t.Errorf("NNO COUNT %v vs %v (rel %v)", res[0].Estimate, truth, rel)
	}
	if res[0].Queries == 0 || res[0].Samples != 150 {
		t.Errorf("run accounting: %+v", res[0])
	}
}

func TestNNOMoreExpensivePerSampleThanAGG(t *testing.T) {
	// The headline comparison: at equal sample counts NNO burns far
	// more queries than LR-LBS-AGG with devices enabled.
	db := smallService2(100, 307)
	svcN := lbs.NewService(db, lbs.Options{K: 1})
	nno := NewNNOBaseline(svcN, NNOOptions{Seed: 3})
	if _, err := nno.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(60)); err != nil {
		t.Fatal(err)
	}
	svcA := lbs.NewService(db, lbs.Options{K: 1})
	agg := NewLRAggregator(svcA, DefaultLROptions(3))
	if _, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(60)); err != nil {
		t.Fatal(err)
	}
	if svcN.QueryCount() <= svcA.QueryCount() {
		t.Errorf("NNO %d queries not above LR-AGG %d", svcN.QueryCount(), svcA.QueryCount())
	}
}

func TestNNOBudgetStop(t *testing.T) {
	db := smallService2(50, 311)
	svc := lbs.NewService(db, lbs.Options{K: 1, Budget: 200})
	nno := NewNNOBaseline(svc, NNOOptions{Seed: 5})
	res, err := nno.Run(context.Background(), aggsOf(t, CountSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Queries > 200 {
		t.Errorf("budget exceeded: %d", res[0].Queries)
	}
}

func TestNNONoAggregates(t *testing.T) {
	db := smallService2(10, 313)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	nno := NewNNOBaseline(svc, NNOOptions{Seed: 7})
	if _, err := nno.Run(context.Background(), nil, WithMaxSamples(5)); err == nil {
		t.Errorf("expected error")
	}
}

func TestNNOEmptyAnswer(t *testing.T) {
	db := smallService2(30, 317)
	svc := lbs.NewService(db, lbs.Options{K: 1, MaxRadius: 3})
	nno := NewNNOBaseline(svc, NNOOptions{Seed: 9})
	res, err := nno.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(80))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples != 80 {
		t.Errorf("samples with empty answers: %d", res[0].Samples)
	}
}
