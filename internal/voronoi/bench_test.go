package voronoi

import (
	"fmt"
	"testing"
)

// BenchmarkCompute10k measures ground-truth top-1 diagram construction
// over a 10k-tuple database at several worker counts — the evaluation-
// scale workload the parallel Compute targets. The 1→8 ratio is the
// scaling acceptance metric (meaningful only on multi-core hosts).
func BenchmarkCompute10k(b *testing.B) {
	db := randomDB(10000, 31)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := computeParallel(db, 1, workers)
				if len(d.Cells) != db.Len() {
					b.Fatal("incomplete diagram")
				}
			}
		})
	}
}
