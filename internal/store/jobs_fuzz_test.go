package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// FuzzJobStoreRecover writes arbitrary bytes as a stored job file
// (jobs/job-3.json) and recovers the job table from it, as a restart
// does: Recover must return an error or leave job-3 in the table, and
// once any resumed run has ended (against a 40-query backend) its view
// must be settled — done, canceled or failed. Nothing may panic. Seeds
// are a finished job, a running job that resumes, a job whose spec no
// longer validates, a job in a state no version writes, a torn file
// and a file whose ID disagrees with its name.
func FuzzJobStoreRecover(f *testing.F) {
	db := workload.USASchools(200, 3).DB
	spec := jobs.Spec{Method: jobs.MethodLR, Seed: 7, Aggregates: []core.AggSpec{core.CountSpec()},
		Options: jobs.RunOptions{MaxSamples: 3}}
	created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	seed := func(sj jobs.StoredJob) []byte {
		b, err := json.Marshal(sj)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(jobs.StoredJob{ID: "job-3", Spec: spec, View: jobs.View{ID: "job-3", State: jobs.StateDone,
		Method: spec.Method, Samples: 3, CreatedAt: created, FinishedAt: &created}}))
	f.Add(seed(jobs.StoredJob{ID: "job-3", Spec: spec, View: jobs.View{ID: "job-3", State: jobs.StateRunning,
		Method: spec.Method, Samples: 1, CreatedAt: created}}))
	bad := spec
	bad.Method = "bogus"
	f.Add(seed(jobs.StoredJob{ID: "job-3", Spec: bad, View: jobs.View{ID: "job-3", State: jobs.StateRunning}}))
	f.Add(seed(jobs.StoredJob{ID: "job-3", Spec: spec, View: jobs.View{ID: "job-3", State: "paused"}}))
	f.Add([]byte(`{"id":"job-3","spec":{"method":"lr"`))
	f.Add(seed(jobs.StoredJob{ID: "job-9", Spec: spec, View: jobs.View{ID: "job-9", State: jobs.StateDone}}))

	root := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := filepath.Join(root, "input")
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, jobsDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, jobsDir, "job-3.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		backend := lbs.NewService(db, lbs.Options{K: 5, Budget: 40})
		m := jobs.NewManager(backend, jobs.ManagerOptions{Store: st.Jobs()})
		if _, err := m.Recover(); err != nil {
			return
		}
		j, ok := m.Get("job-3")
		if !ok {
			t.Fatal("recovery dropped the stored job")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("recovered job did not settle: %v", err)
		}
		switch v := j.Snapshot(); v.State {
		case jobs.StateDone, jobs.StateCanceled, jobs.StateFailed:
		default:
			t.Fatalf("recovered job settled in state %q", v.State)
		}
	})
}
