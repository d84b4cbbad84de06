package jobs

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/lbs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// BenchmarkLRJob runs the estimate-lr server's job mix in process: LR
// jobs over USASchools-50k (seed 1, k = 10) partitioned into 4 shards
// behind a 4096-entry answer cache, each capped at 600 queries with a
// 5% CI target; every third job is a COUNT at parallelism 2, the
// others the {COUNT, SUM, AVG(enrollment)} planner batch. The cache
// stays warm across jobs, as in a running server. It reports ms/job,
// queries/job and gc/job, the garbage-collection cycles per job.
func BenchmarkLRJob(b *testing.B) {
	db := workload.USASchools(50000, 1).DB
	router, err := shard.FromPartsWrapped(shard.Partition(db, 4), lbs.Options{K: 10}, shard.DefaultResilience(), nil)
	if err != nil {
		b.Fatal(err)
	}
	m := NewManager(lbs.NewCachedOracle(router, lbs.CacheOptions{Capacity: 4096}), ManagerOptions{})
	ctx := context.Background()
	var queries int64
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	gc0 := mem.NumGC
	b.ResetTimer()
	for i := range b.N {
		spec := Spec{
			Method:     MethodLR,
			Seed:       int64(i) + 1,
			Aggregates: []core.AggSpec{core.CountSpec(), core.SumSpec("enrollment"), core.AvgSpec("enrollment")},
			Options:    RunOptions{MaxQueries: 600, TargetCI: 0.05},
		}
		if (i+1)%3 == 0 {
			spec.Aggregates = spec.Aggregates[:1]
			spec.Options.Parallelism = 2
		}
		j, err := m.Create(spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		v := j.Snapshot()
		if v.State != StateDone {
			b.Fatalf("job %d settled %s: %s", i, v.State, v.Error)
		}
		queries += v.Queries
	}
	b.StopTimer()
	runtime.ReadMemStats(&mem)
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/job")
	b.ReportMetric(float64(queries)/float64(b.N), "queries/job")
	b.ReportMetric(float64(mem.NumGC-gc0)/float64(b.N), "gc/job")
}
