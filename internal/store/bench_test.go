package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geo"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// benchFixtureFiles writes the same 10k-tuple city as lbsgen JSON and
// as a .lbspack, returning both paths.
func benchFixtureFiles(b *testing.B, n int) (jsonPath, packPath string) {
	b.Helper()
	sc := workload.USASchools(n, 7)
	dir := b.TempDir()

	packPath = filepath.Join(dir, "city.lbspack")
	if err := WritePackMetric(packPath, sc.DB, geo.Euclidean, 0, 0, nil); err != nil {
		b.Fatal(err)
	}

	data, err := json.Marshal(NewDataset(sc.Name, sc.DB, geo.Euclidean))
	if err != nil {
		b.Fatal(err)
	}
	jsonPath = filepath.Join(dir, "city.json")
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		b.Fatal(err)
	}
	return jsonPath, packPath
}

// BenchmarkColdStartJSON10k is the restart path without the store:
// re-parse the lbsgen JSON export and rebuild the index from scratch.
func BenchmarkColdStartJSON10k(b *testing.B) {
	jsonPath, _ := benchFixtureFiles(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, _, err := LoadDatasetMetric(jsonPath, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if db.Len() != 10_000 {
			b.Fatal("bad load")
		}
	}
}

// BenchmarkWarmStartPack10k is the same restart through the store: a
// paged scan of the pack into the index, no JSON in sight.
func BenchmarkWarmStartPack10k(b *testing.B) {
	_, packPath := benchFixtureFiles(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, _, err := LoadDatasetMetric(packPath, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if db.Len() != 10_000 {
			b.Fatal("bad load")
		}
	}
}

// BenchmarkWALAppend measures the durable-mutation hot path: one
// insert batch journaled (unsynced) per iteration.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	gen := func() *lbs.Database { return workload.USASchools(1000, 7).DB }
	db, err := st.OpenLive(gen, lbs.Options{K: 5}, live.Options{CompactThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Live().Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := insertOps(100_000+i*8, 8)
		for _, r := range db.Apply(ctx, ops) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
