package voronoi

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

func testDB(n int, seed int64) *lbs.Database {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	pts := workload.ClusterMix(workload.ClusterMixConfig{
		Bounds: bounds, N: n, Clusters: 4, UniformFrac: 0.25, Seed: seed,
	})
	tuples := make([]lbs.Tuple, n)
	for i, p := range pts {
		tuples[i] = lbs.Tuple{ID: int64(i + 1), Loc: p}
	}
	return lbs.NewDatabase(bounds, tuples)
}

func TestDiagramPartition(t *testing.T) {
	// Top-1 cells must partition the bounding box; top-k cells must
	// cover it exactly k times.
	db := testDB(60, 5)
	for _, k := range []int{1, 2, 3} {
		d := Compute(db, k)
		var total float64
		for _, a := range d.Areas() {
			total += a
		}
		want := float64(k) * db.Bounds().Area()
		if math.Abs(total-want) > 1e-5*want {
			t.Errorf("k=%d: total cell area %v want %v", k, total, want)
		}
	}
}

func TestDiagramMembership(t *testing.T) {
	// Random points must lie in exactly the cell(s) of their k nearest
	// tuples.
	db := testDB(40, 7)
	d := Compute(db, 2)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		q := geom.RandomInRect(rng, db.Bounds())
		// Brute-force 2 nearest.
		type cand struct {
			i int
			d float64
		}
		var best, second cand = cand{-1, math.Inf(1)}, cand{-1, math.Inf(1)}
		for i := 0; i < db.Len(); i++ {
			dd := q.Dist(db.Tuple(i).Loc)
			if dd < best.d {
				second = best
				best = cand{i, dd}
			} else if dd < second.d {
				second = cand{i, dd}
			}
		}
		if second.d-best.d < 1e-6 {
			continue // near a boundary; skip
		}
		if !d.Cells[best.i].Contains(q) {
			t.Fatalf("nearest cell does not contain %v", q)
		}
		if !d.Cells[second.i].Contains(q) {
			t.Fatalf("second-nearest top-2 cell does not contain %v", q)
		}
	}
}

func TestCellStatsSkew(t *testing.T) {
	// Clustered data must show the Figure-11 heavy tail: a large
	// max/min ratio and positive Gini.
	db := testDB(150, 11)
	d := Compute(db, 1)
	st := d.CellStats()
	if st.N != 150 {
		t.Fatalf("stats N: %d", st.N)
	}
	if st.MaxOverMin < 10 {
		t.Errorf("expected heavy-tailed cells, max/min = %v", st.MaxOverMin)
	}
	if st.Gini <= 0.2 {
		t.Errorf("expected substantial inequality, gini = %v", st.Gini)
	}
	if math.Abs(st.TotalOverBoundArea-1) > 1e-6 {
		t.Errorf("partition check: %v", st.TotalOverBoundArea)
	}
	if st.Min > st.P50 || st.P50 > st.P90 || st.P90 > st.P99 || st.P99 > st.Max {
		t.Errorf("quantiles not ordered: %+v", st)
	}
}

func TestAreaStatsEmpty(t *testing.T) {
	if st := areaStats(nil, 1); st.N != 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

func TestWriteSVG(t *testing.T) {
	db := testDB(25, 13)
	d := Compute(db, 1)
	var sb strings.Builder
	if err := d.WriteSVG(&sb, 400); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Errorf("malformed SVG envelope")
	}
	if strings.Count(svg, "<circle") != 25 {
		t.Errorf("site dots: %d", strings.Count(svg, "<circle"))
	}
	if strings.Count(svg, "<polygon") < 25 {
		t.Errorf("cell polygons: %d", strings.Count(svg, "<polygon"))
	}
}

func TestComputeSingletonDB(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	db := lbs.NewDatabase(bounds, []lbs.Tuple{{ID: 1, Loc: geom.Pt(5, 5)}})
	d := Compute(db, 1)
	if len(d.Cells) != 1 {
		t.Fatalf("cells: %d", len(d.Cells))
	}
	if math.Abs(d.Cells[0].Area()-100) > 1e-9 {
		t.Errorf("singleton cell should be the whole box: %v", d.Cells[0].Area())
	}
}
