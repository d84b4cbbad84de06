package voronoi

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
)

func randomDB(n int, seed int64) *lbs.Database {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]lbs.Tuple, n)
	for i := range tuples {
		tuples[i] = lbs.Tuple{ID: int64(i + 1), Loc: geom.Pt(rng.Float64()*100, rng.Float64()*100)}
	}
	return lbs.NewDatabase(geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100)), tuples)
}

// TestComputeParallelMatchesSerial checks worker count does not change
// the diagram: per-cell areas and cut sets must be identical, because
// cells are computed independently from the same deterministic inputs.
func TestComputeParallelMatchesSerial(t *testing.T) {
	db := randomDB(400, 21)
	for _, k := range []int{1, 3} {
		serial := computeParallel(db, k, 1)
		parallel := computeParallel(db, k, 8)
		if len(serial.Cells) != len(parallel.Cells) {
			t.Fatalf("k=%d: cell count %d vs %d", k, len(serial.Cells), len(parallel.Cells))
		}
		for i := range serial.Cells {
			s, p := serial.Cells[i], parallel.Cells[i]
			if s.NumCuts() != p.NumCuts() {
				t.Fatalf("k=%d cell %d: cuts %d vs %d", k, i, s.NumCuts(), p.NumCuts())
			}
			sa, pa := s.Area(), p.Area()
			if diff := sa - pa; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("k=%d cell %d: area %.12f vs %.12f", k, i, sa, pa)
			}
		}
		// The top-k areas must still tile the bound k times over.
		stats := parallel.CellStats()
		if got := stats.TotalOverBoundArea; got < float64(k)*0.999 || got > float64(k)*1.001 {
			t.Fatalf("k=%d: total/bound = %.6f, want ≈ %d", k, got, k)
		}
	}
}
