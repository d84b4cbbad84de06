package lbs

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func testDB(t *testing.T) *Database {
	t.Helper()
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	tuples := []Tuple{
		{ID: 1, Loc: geom.Pt(1, 1), Name: "Starbucks", Category: "cafe",
			Attrs: map[string]float64{"rating": 4.5}, Tags: map[string]string{"open_sunday": "yes"}},
		{ID: 2, Loc: geom.Pt(9, 9), Name: "Moonbucks", Category: "cafe",
			Attrs: map[string]float64{"rating": 3.0}},
		{ID: 3, Loc: geom.Pt(5, 5), Name: "School A", Category: "school",
			Attrs: map[string]float64{"enrollment": 300}},
		{ID: 4, Loc: geom.Pt(5.5, 5), Name: "School B", Category: "school",
			Attrs: map[string]float64{"enrollment": 700}},
	}
	return NewDatabase(bounds, tuples)
}

func TestDatabaseAccessors(t *testing.T) {
	db := testDB(t)
	if db.Len() != 4 {
		t.Fatalf("len: %d", db.Len())
	}
	tp, ok := db.ByID(3)
	if !ok || tp.Name != "School A" {
		t.Fatalf("ByID: %v %v", tp, ok)
	}
	if _, ok := db.ByID(99); ok {
		t.Errorf("ByID(99) should miss")
	}
	if db.Tuple(0).ID != 1 {
		t.Errorf("Tuple(0): %v", db.Tuple(0))
	}
	if db.EffectiveLoc(0) != geom.Pt(1, 1) {
		t.Errorf("effective loc without obfuscation differs from true loc")
	}
	if db.Bounds().Max != geom.Pt(10, 10) {
		t.Errorf("bounds: %v", db.Bounds())
	}
}

func TestTupleAttrTag(t *testing.T) {
	tp := Tuple{Attrs: map[string]float64{"a": 2}, Tags: map[string]string{"g": "m"}}
	if tp.Attr("a") != 2 || tp.Attr("zz") != 0 {
		t.Errorf("Attr")
	}
	if tp.Tag("g") != "m" || tp.Tag("zz") != "" {
		t.Errorf("Tag")
	}
	empty := Tuple{}
	if empty.Attr("a") != 0 || empty.Tag("g") != "" {
		t.Errorf("nil maps")
	}
}

func TestDuplicateIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate ID did not panic")
		}
	}()
	NewDatabase(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)), []Tuple{
		{ID: 1, Loc: geom.Pt(0.1, 0.1)},
		{ID: 1, Loc: geom.Pt(0.2, 0.2)},
	})
}

func TestQueryLRBasic(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	res, err := svc.QueryLR(context.Background(), geom.Pt(0, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].ID != 1 {
		t.Fatalf("results: %+v", res)
	}
	if res[0].Loc != geom.Pt(1, 1) {
		t.Errorf("LR must return location: %v", res[0].Loc)
	}
	if math.Abs(res[0].Dist-math.Sqrt2) > 1e-12 {
		t.Errorf("dist: %v", res[0].Dist)
	}
	if res[0].Attrs["rating"] != 4.5 || res[0].Tags["open_sunday"] != "yes" {
		t.Errorf("attrs not carried: %+v", res[0])
	}
	if svc.QueryCount() != 1 {
		t.Errorf("query count: %d", svc.QueryCount())
	}
}

func TestQueryLNRHidesLocation(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 3})
	res, err := svc.QueryLNR(context.Background(), geom.Pt(5.2, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results: %+v", res)
	}
	// Rank order: School A (0.2), School B (0.3), then the cafes.
	if res[0].ID != 3 || res[1].ID != 4 {
		t.Errorf("rank order: %+v", res)
	}
}

func TestServerSideFilter(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 10})
	res, err := svc.QueryLR(context.Background(), geom.Pt(0, 0), CategoryFilter("school"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("filtered count: %d", len(res))
	}
	for _, r := range res {
		if r.Category != "school" {
			t.Errorf("filter leak: %+v", r)
		}
	}
	res, err = svc.QueryLR(context.Background(), geom.Pt(0, 0), NameFilter("Starbucks"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Name != "Starbucks" {
		t.Errorf("name filter: %+v", res)
	}
}

func TestMaxRadius(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 5, MaxRadius: 1.0})
	res, err := svc.QueryLR(context.Background(), geom.Pt(0, 9), nil) // nothing within 1.0
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("expected empty answer beyond dmax: %+v", res)
	}
	res, _ = svc.QueryLR(context.Background(), geom.Pt(1.3, 1), nil)
	if len(res) != 1 || res[0].ID != 1 {
		t.Errorf("within dmax: %+v", res)
	}
}

func TestBudget(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1, Budget: 2})
	for i := 0; i < 2; i++ {
		if _, err := svc.QueryLR(context.Background(), geom.Pt(1, 1), nil); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if _, err := svc.QueryLNR(context.Background(), geom.Pt(1, 1), nil); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if svc.QueryCount() != 2 {
		t.Errorf("count after exhaustion: %d", svc.QueryCount())
	}
	if svc.RemainingBudget() != 0 {
		t.Errorf("remaining: %d", svc.RemainingBudget())
	}
}

func TestUnlimitedBudget(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1})
	if svc.RemainingBudget() != -1 {
		t.Errorf("unlimited: %d", svc.RemainingBudget())
	}
}

func TestGroundTruthAndCount(t *testing.T) {
	db := testDB(t)
	sum := db.GroundTruth(func(tp *Tuple) float64 { return tp.Attr("enrollment") }, nil)
	if sum != 1000 {
		t.Errorf("sum enrollment: %v", sum)
	}
	n := db.Count(func(tp *Tuple) bool { return tp.Category == "cafe" })
	if n != 2 {
		t.Errorf("cafes: %d", n)
	}
	if db.Count(nil) != 4 {
		t.Errorf("count all: %d", db.Count(nil))
	}
}

func TestSubsample(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	tuples := make([]Tuple, 1000)
	for i := range tuples {
		tuples[i] = Tuple{ID: int64(i), Loc: geom.RandomInRect(rng, bounds)}
	}
	db := NewDatabase(bounds, tuples)
	half := db.Subsample(0.5, 42)
	if half.Len() != 500 {
		t.Fatalf("half: %d", half.Len())
	}
	// Deterministic.
	half2 := db.Subsample(0.5, 42)
	for i := 0; i < half.Len(); i++ {
		if half.Tuple(i).ID != half2.Tuple(i).ID {
			t.Fatalf("subsample not deterministic at %d", i)
		}
	}
	if db.Subsample(1.0, 1) != db {
		t.Errorf("frac=1 should return the same db")
	}
	tiny := db.Subsample(0.0001, 1)
	if tiny.Len() < 1 {
		t.Errorf("tiny subsample empty")
	}
}

func TestObfuscationDistorts(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	rng := rand.New(rand.NewSource(3))
	tuples := make([]Tuple, 200)
	for i := range tuples {
		tuples[i] = Tuple{ID: int64(i), Loc: geom.RandomInRect(rng, bounds)}
	}
	obf := Obfuscation{GridSize: 0.5, Jitter: 0.2, Seed: 7}
	db := NewObfuscatedDatabase(bounds, tuples, obf)
	moved := 0
	maxShift := 0.0
	for i := range tuples {
		d := db.EffectiveLoc(i).Dist(tuples[i].Loc)
		if d > 1e-12 {
			moved++
		}
		if d > maxShift {
			maxShift = d
		}
		if !bounds.Contains(db.EffectiveLoc(i)) {
			t.Fatalf("effective loc escaped bounds: %v", db.EffectiveLoc(i))
		}
	}
	if moved < 190 {
		t.Errorf("obfuscation moved only %d/200 tuples", moved)
	}
	// Max displacement ≤ grid diagonal/2 + jitter.
	if lim := 0.5*math.Sqrt2/2 + 0.2 + 1e-9; maxShift > lim {
		t.Errorf("shift %v exceeds limit %v", maxShift, lim)
	}
	// Deterministic in seed.
	db2 := NewObfuscatedDatabase(bounds, tuples, obf)
	for i := range tuples {
		if db.EffectiveLoc(i) != db2.EffectiveLoc(i) {
			t.Fatalf("obfuscation not deterministic")
		}
	}
}

func TestProminenceRanking(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	tuples := []Tuple{
		{ID: 1, Loc: geom.Pt(5, 5), Attrs: map[string]float64{"pop": 0}},
		{ID: 2, Loc: geom.Pt(5.4, 5), Attrs: map[string]float64{"pop": 10}},
	}
	db := NewDatabase(bounds, tuples)
	// Distance ranking: tuple 1 first from (5.1, 5).
	dist := NewService(db, Options{K: 2})
	res, _ := dist.QueryLR(context.Background(), geom.Pt(5.1, 5), nil)
	if res[0].ID != 1 {
		t.Fatalf("distance rank: %+v", res)
	}
	// Prominence ranking with a strong weight: popular tuple 2 first.
	prom := NewService(db, Options{
		K: 2, Rank: RankByProminence,
		ProminenceAttr: "pop", ProminenceWeight: 0.1,
	})
	res, _ = prom.QueryLR(context.Background(), geom.Pt(5.1, 5), nil)
	if res[0].ID != 2 {
		t.Fatalf("prominence rank: %+v", res)
	}
	// The nearest neighbor is still present in the top-k (what
	// LR-LBS-AGG relies on, §5.3).
	found := false
	for _, r := range res {
		if r.ID == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("nearest neighbor missing from prominence results")
	}
}

func TestNewServiceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("K=0 did not panic")
		}
	}()
	NewService(testDB(t), Options{K: 0})
}

func TestConcurrentQueries(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				if _, err := svc.QueryLR(context.Background(), geom.Pt(float64(i%10), 5), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if svc.QueryCount() != 800 {
		t.Errorf("concurrent count: %d", svc.QueryCount())
	}
}
