package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

var box = geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))

func TestUniformBasics(t *testing.T) {
	u := NewUniform(box)
	if u.Bounds() != box {
		t.Errorf("bounds")
	}
	if got := u.Density(geom.Pt(5, 5)); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("density: %v", got)
	}
	if got := u.Density(geom.Pt(50, 5)); got != 0 {
		t.Errorf("outside density: %v", got)
	}
	poly := geom.Polygon{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(5, 5), geom.Pt(0, 5)}
	if got := u.IntegratePolygon(poly); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("integrate: %v", got)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if p := u.Sample(rng); !box.Contains(p) {
			t.Fatalf("sample outside: %v", p)
		}
	}
}

func TestUniformDegeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("degenerate bounds did not panic")
		}
	}()
	NewUniform(geom.Rect{})
}

func TestGridValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"dims", func() { NewGrid(box, 0, 2, nil) }},
		{"len", func() { NewGrid(box, 2, 2, []float64{1, 2}) }},
		{"neg", func() { NewGrid(box, 1, 2, []float64{1, -1}) }},
		{"zero", func() { NewGrid(box, 1, 2, []float64{0, 0}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestGridDensityIntegratesToOne(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 5, 6}
	g := NewGrid(box, 3, 2, weights)
	total := g.IntegratePolygon(box.Polygon())
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("total mass: %v", total)
	}
	// Density at a point in the heaviest cell (top-right: weight 6/21).
	d := g.Density(geom.Pt(9, 9))
	cellArea := box.Area() / 6
	want := (6.0 / 21.0) / cellArea
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("density: %v want %v", d, want)
	}
	if g.Density(geom.Pt(-1, 0)) != 0 {
		t.Errorf("outside density")
	}
}

func TestGridSampleDistribution(t *testing.T) {
	// 2×1 grid, left cell weight 3, right cell weight 1.
	g := NewGrid(box, 2, 1, []float64{3, 1})
	rng := rand.New(rand.NewSource(2))
	const n = 40000
	left := 0
	for i := 0; i < n; i++ {
		p := g.Sample(rng)
		if !box.Contains(p) {
			t.Fatalf("sample outside: %v", p)
		}
		if p.X < 5 {
			left++
		}
	}
	frac := float64(left) / n
	if math.Abs(frac-0.75) > 0.01 {
		t.Errorf("left fraction: %v want 0.75", frac)
	}
}

func TestGridIntegrateMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := make([]float64, 16)
	for i := range weights {
		weights[i] = rng.Float64() + 0.1
	}
	g := NewGrid(box, 4, 4, weights)
	// A triangle straddling several cells.
	tri := geom.Polygon{geom.Pt(1, 1), geom.Pt(9, 2), geom.Pt(4, 8)}
	exact := g.IntegratePolygon(tri)
	const n = 200000
	hits := 0.0
	for i := 0; i < n; i++ {
		p := geom.RandomInRect(rng, box)
		if tri.Contains(p) {
			hits += g.Density(p)
		}
	}
	mc := hits / n * box.Area()
	if math.Abs(exact-mc) > 0.01 {
		t.Errorf("integrate: exact %v vs MC %v", exact, mc)
	}
}

func TestGridFromPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Cluster everything in the lower-left quadrant.
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*5, rng.Float64()*5)
	}
	g := GridFromPoints(box, 4, 4, pts, 1)
	// Mass of the lower-left quadrant should dominate.
	ll := geom.Polygon{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(5, 5), geom.Pt(0, 5)}
	if mass := g.IntegratePolygon(ll); mass < 0.9 {
		t.Errorf("lower-left mass: %v", mass)
	}
	// Smoothing keeps all cells strictly positive.
	if g.Density(geom.Pt(9.9, 9.9)) <= 0 {
		t.Errorf("smoothed density should be positive everywhere")
	}
	// Points outside the rect are ignored, not crashed on.
	g2 := GridFromPoints(box, 2, 2, []geom.Point{geom.Pt(-5, -5)}, 1)
	if g2 == nil {
		t.Errorf("grid with outside point")
	}
}

func TestGridNoisy(t *testing.T) {
	g := NewGrid(box, 2, 2, []float64{1, 1, 1, 1})
	n := g.Noisy(rand.New(rand.NewSource(5)), 0.5)
	if math.Abs(n.IntegratePolygon(box.Polygon())-1) > 1e-9 {
		t.Errorf("noisy grid not normalized")
	}
	same := true
	for i := range g.weights {
		if math.Abs(g.weights[i]-n.weights[i]) > 1e-12 {
			same = false
		}
	}
	if same {
		t.Errorf("noise had no effect")
	}
}

func TestUniformVsFlatGridAgree(t *testing.T) {
	u := NewUniform(box)
	g := NewGrid(box, 5, 5, func() []float64 {
		w := make([]float64, 25)
		for i := range w {
			w[i] = 1
		}
		return w
	}())
	poly := geom.Polygon{geom.Pt(1.3, 2.1), geom.Pt(7.9, 3.3), geom.Pt(5.5, 8.8)}
	a := u.IntegratePolygon(poly)
	b := g.IntegratePolygon(poly)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("uniform %v vs flat grid %v", a, b)
	}
}
