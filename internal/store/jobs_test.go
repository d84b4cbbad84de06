package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/workload"
)

func jobBackend() *lbs.Service {
	sc := workload.USASchools(200, 3)
	return lbs.NewService(sc.DB, lbs.Options{K: 5, Budget: 300})
}

func settle(t *testing.T, j *jobs.Job) jobs.View {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not settle: %v", j.ID, err)
	}
	return j.Snapshot()
}

var resumeSpec = jobs.Spec{
	Method:     jobs.MethodLR,
	Seed:       42,
	Aggregates: []core.AggSpec{core.CountSpec(), core.SumSpec("enrollment")},
}

// TestJobResumeMatchesUninterrupted is the resume acceptance pin: a
// job recovered mid-run re-runs deterministically, so its final
// estimate is bit-equal to a run the crash never interrupted.
func TestJobResumeMatchesUninterrupted(t *testing.T) {
	// The uninterrupted reference run (no store).
	ref := settle(t, mustCreate(t, jobs.NewManager(jobBackend(), jobs.ManagerOptions{}), resumeSpec))
	if ref.State != jobs.StateDone {
		t.Fatalf("reference run state %s (err %q)", ref.State, ref.Error)
	}

	// The "crashed" process left a mid-run checkpoint: state running,
	// partial sample count, no results settled.
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	js := st.Jobs()
	if err := js.Save(jobs.StoredJob{
		ID:   "job-7",
		Spec: resumeSpec,
		View: jobs.View{
			ID: "job-7", State: jobs.StateRunning,
			Method: resumeSpec.Method, Seed: resumeSpec.Seed,
			Samples: 9, CreatedAt: time.Now().Add(-time.Minute),
		},
	}); err != nil {
		t.Fatal(err)
	}

	m := jobs.NewManager(jobBackend(), jobs.ManagerOptions{Store: js})
	rs, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Resumed != 1 || rs.Recovered != 0 || rs.Unresumable != 0 {
		t.Fatalf("recovery stats %+v, want exactly one resume", rs)
	}
	st.RecordRecovery(rs)
	if st.Stats().ResumedJobs != 1 {
		t.Fatalf("resumed_jobs counter = %d, want 1", st.Stats().ResumedJobs)
	}

	j, ok := m.Get("job-7")
	if !ok {
		t.Fatal("resumed job not in the table under its original ID")
	}
	got := settle(t, j)
	if got.State != jobs.StateDone {
		t.Fatalf("resumed run state %s (err %q)", got.State, got.Error)
	}
	if !got.Resumed {
		t.Fatal("resumed run not marked Resumed")
	}
	if got.Samples != ref.Samples || got.Queries != ref.Queries {
		t.Fatalf("resumed cost %d/%d samples/queries, uninterrupted %d/%d",
			got.Samples, got.Queries, ref.Samples, ref.Queries)
	}
	if len(got.Results) != len(ref.Results) {
		t.Fatalf("resumed %d results, uninterrupted %d", len(got.Results), len(ref.Results))
	}
	for i := range got.Results {
		if got.Results[i].Estimate != ref.Results[i].Estimate {
			t.Fatalf("result %d: resumed estimate %g != uninterrupted %g",
				i, float64(got.Results[i].Estimate), float64(ref.Results[i].Estimate))
		}
	}

	// The ID sequence advanced past the recovered job.
	j2, err := m.Create(resumeSpec)
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID != "job-8" {
		t.Fatalf("next ID %s, want job-8 (sequence past recovered IDs)", j2.ID)
	}
	settle(t, j2)
}

// TestLegacyBatchFieldJobResumes: a job persisted while specs still
// carried "options":{"batch":m} resumes after a restart, the unknown
// field ignored, and settles on the uninterrupted run's estimates.
func TestLegacyBatchFieldJobResumes(t *testing.T) {
	ref := settle(t, mustCreate(t, jobs.NewManager(jobBackend(), jobs.ManagerOptions{}), resumeSpec))
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	js := st.Jobs()
	if err := js.Save(jobs.StoredJob{
		ID:   "job-2",
		Spec: resumeSpec,
		View: jobs.View{
			ID: "job-2", State: jobs.StateRunning,
			Method: resumeSpec.Method, Seed: resumeSpec.Seed, Samples: 5,
		},
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, jobsDir, "job-2.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(data), `"options":{}`, `"options":{"batch":8}`, 1)
	if legacy == string(data) {
		t.Fatalf("stored spec has no empty options object to extend: %s", data)
	}
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	m := jobs.NewManager(jobBackend(), jobs.ManagerOptions{Store: js})
	rs, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Resumed != 1 || rs.Unresumable != 0 {
		t.Fatalf("recovery stats %+v, want exactly one resume", rs)
	}
	j, ok := m.Get("job-2")
	if !ok {
		t.Fatal("resumed job not in the table")
	}
	got := settle(t, j)
	if got.State != jobs.StateDone {
		t.Fatalf("resumed run state %s (err %q)", got.State, got.Error)
	}
	if got.Samples != ref.Samples || got.Queries != ref.Queries {
		t.Fatalf("resumed cost %d/%d samples/queries, uninterrupted %d/%d",
			got.Samples, got.Queries, ref.Samples, ref.Queries)
	}
	for i := range ref.Results {
		if got.Results[i].Estimate != ref.Results[i].Estimate {
			t.Fatalf("result %d: resumed estimate %g != uninterrupted %g",
				i, float64(got.Results[i].Estimate), float64(ref.Results[i].Estimate))
		}
	}
}

// checkpointCounter counts the mid-run checkpoints a manager saves:
// the views of running jobs with samples drawn.
type checkpointCounter struct {
	jobs.Store
	n atomic.Int64
}

func (s *checkpointCounter) Save(sj jobs.StoredJob) error {
	if sj.View.State == jobs.StateRunning && sj.View.Samples > 0 {
		s.n.Add(1)
	}
	return s.Store.Save(sj)
}

// TestFinishedJobSurvivesRestart: a job that checkpointed mid-run and
// then settled reloads after a restart with its final view — the
// settled save is never clobbered by a late checkpoint.
func TestFinishedJobSurvivesRestart(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 600 samples cross the fixed checkpoint interval (256 samples)
	// twice.
	long := resumeSpec
	long.Options.MaxSamples = 600
	counter := &checkpointCounter{Store: st.Jobs()}
	m1 := jobs.NewManager(lbs.NewService(workload.USASchools(200, 3).DB, lbs.Options{K: 5}), jobs.ManagerOptions{Store: counter})
	want := settle(t, mustCreate(t, m1, long))
	if want.State != jobs.StateDone || want.Samples != 600 {
		t.Fatalf("state %s after %d samples, want done after 600", want.State, want.Samples)
	}
	if got := counter.n.Load(); got != 2 {
		t.Fatalf("%d mid-run checkpoints over 600 samples, want 2", got)
	}

	m2 := jobs.NewManager(jobBackend(), jobs.ManagerOptions{Store: st.Jobs()})
	rs, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Recovered != 1 || rs.Resumed != 0 {
		t.Fatalf("recovery stats %+v, want one finished reload", rs)
	}
	j, ok := m2.Get(want.ID)
	if !ok {
		t.Fatal("finished job missing after restart")
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("recovered finished job's Done() not closed")
	}
	got := j.Snapshot()
	if got.State != jobs.StateDone || got.Samples != want.Samples {
		t.Fatalf("recovered view %+v, want the stored final view %+v", got, want)
	}
	for i := range want.Results {
		if got.Results[i].Estimate != want.Results[i].Estimate {
			t.Fatalf("result %d: recovered %g != stored %g",
				i, float64(got.Results[i].Estimate), float64(want.Results[i].Estimate))
		}
	}
}

func TestCorruptJobEntrySettlesAsFailed(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, jobsDir, "job-3.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := jobs.NewManager(jobBackend(), jobs.ManagerOptions{Store: st.Jobs()})
	rs, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Unresumable != 1 {
		t.Fatalf("recovery stats %+v, want one unresumable", rs)
	}
	j, ok := m.Get("job-3")
	if !ok {
		t.Fatal("corrupt job vanished — recovery must keep it in the table")
	}
	v := j.Snapshot()
	if v.State != jobs.StateFailed || !strings.Contains(v.Error, "cannot be resumed") {
		t.Fatalf("view %+v, want failed with a typed unresumable reason", v)
	}

	// The settled failure is durable: a second restart reloads it as a
	// finished (failed) job instead of re-tripping on the torn bytes.
	m2 := jobs.NewManager(jobBackend(), jobs.ManagerOptions{Store: st.Jobs()})
	rs2, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Recovered != 1 || rs2.Unresumable != 0 {
		t.Fatalf("second recovery stats %+v, want the settled failure reloaded", rs2)
	}
}

// TestStoredNNOJobRecovery: NNO left the job methods, but a store
// written while it was one may still hold NNO jobs. A running one
// cannot be re-planned, so it settles as failed and unresumable; a
// finished one reloads its stored view verbatim.
func TestStoredNNOJobRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		running  = `{"id":"job-4","spec":{"method":"nno","seed":3,"aggregates":[{"kind":"count"}],"options":{}},"view":{"id":"job-4","state":"running","method":"nno","seed":3,"samples":9,"queries":120,"trace_len":9,"created_at":"2025-01-02T03:04:05Z"}}`
		finished = `{"id":"job-5","spec":{"method":"nno","seed":4,"aggregates":[{"kind":"count"}],"options":{}},"view":{"id":"job-5","state":"done","method":"nno","seed":4,"samples":30,"queries":410,"trace_len":30,"results":[{"name":"COUNT(*)","estimate":196.5,"std_err":12.25,"ci95":24.01,"samples":30,"queries":410}],"created_at":"2025-01-02T03:04:05Z","finished_at":"2025-01-02T03:05:00Z"}}`
	)
	for id, body := range map[string]string{"job-4": running, "job-5": finished} {
		if err := os.WriteFile(filepath.Join(dir, jobsDir, id+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := jobs.NewManager(jobBackend(), jobs.ManagerOptions{Store: st.Jobs()})
	rs, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Unresumable != 1 || rs.Recovered != 1 || rs.Resumed != 0 {
		t.Fatalf("recovery stats %+v, want one unresumable and one reloaded", rs)
	}

	j, ok := m.Get("job-4")
	if !ok {
		t.Fatal("running NNO job vanished — recovery must keep it in the table")
	}
	v := settle(t, j)
	if v.State != jobs.StateFailed || !strings.HasPrefix(v.Error, jobs.ErrUnresumable.Error()) {
		t.Fatalf("running NNO job recovered as %s (err %q), want failed with ErrUnresumable", v.State, v.Error)
	}
	if !strings.Contains(v.Error, `"nno"`) {
		t.Errorf("unresumable reason %q does not name the refused method", v.Error)
	}

	var stored jobs.StoredJob
	if err := json.Unmarshal([]byte(finished), &stored); err != nil {
		t.Fatal(err)
	}
	j, ok = m.Get("job-5")
	if !ok {
		t.Fatal("finished NNO job missing after restart")
	}
	if got := j.Snapshot(); !reflect.DeepEqual(got, stored.View) {
		t.Fatalf("finished NNO job reloaded as %+v, want its stored view %+v", got, stored.View)
	}
}

func mustCreate(t *testing.T, m *jobs.Manager, spec jobs.Spec) *jobs.Job {
	t.Helper()
	j, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}
