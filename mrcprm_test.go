package mrcprm_test

import (
	"testing"
	"time"

	"mrcprm"
	"mrcprm/internal/experiment"
)

// The facade tests exercise the public API end to end the way the README
// quick start does.

func TestQuickstartFlow(t *testing.T) {
	wl := mrcprm.DefaultSyntheticWorkload()
	wl.NumResources = 10
	wl.NumMapHi = 10
	wl.NumReduceHi = 5
	wl.Lambda = 0.05
	jobs, err := wl.Generate(20, mrcprm.NewStream(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	cluster := mrcprm.Cluster{NumResources: 10, MapSlots: 2, ReduceSlots: 2}
	cfg := mrcprm.DefaultConfig()
	cfg.SolveTimeLimit = 0
	cfg.NodeLimit = 10_000
	m, err := mrcprm.Simulate(cluster, mrcprm.NewManager(cluster, cfg), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCompleted != 20 {
		t.Fatalf("completed %d", m.JobsCompleted)
	}
	if m.P() < 0 || m.P() > 1 || m.T() <= 0 {
		t.Fatalf("implausible metrics P=%g T=%g", m.P(), m.T())
	}
}

func TestBaselineFlow(t *testing.T) {
	wl := mrcprm.DefaultFacebookWorkload()
	wl.NumJobs = 15
	wl.NumResources = 8
	jobs, err := wl.Generate(mrcprm.NewStream(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Keep the test quick: drop the giant job types.
	var small []*mrcprm.Job
	for _, j := range jobs {
		if len(j.MapTasks) <= 200 {
			small = append(small, j)
		}
	}
	cluster := mrcprm.Cluster{NumResources: 8, MapSlots: 1, ReduceSlots: 1}
	m, err := mrcprm.Simulate(cluster, mrcprm.NewMinEDF(cluster), small)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCompleted != len(small) {
		t.Fatal("baseline lost jobs")
	}
}

func TestBatchFlow(t *testing.T) {
	j := &mrcprm.Job{ID: 0, Arrival: 0, EarliestStart: 0, Deadline: 100_000}
	j.MapTasks = []*mrcprm.Task{
		{ID: "t0_m1", JobID: 0, Type: mrcprm.MapTask, Exec: 10_000, Req: 1},
	}
	cluster := mrcprm.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	sched, err := mrcprm.SolveBatch(cluster, []*mrcprm.Job{j}, mrcprm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Assignments) != 1 || sched.Assignments[0].Start != 0 {
		t.Fatalf("unexpected schedule %+v", sched.Assignments)
	}
}

// The registry cmd/experiments runs (it imports internal/experiment, not
// the facade) lists every figure, and fast runs are smaller than full ones.
func TestExperimentRegistryExposed(t *testing.T) {
	if len(experiment.Registry) < 11 {
		t.Fatalf("registry has %d entries", len(experiment.Registry))
	}
	if _, ok := experiment.ByID("fig7"); !ok {
		t.Fatal("fig7 missing")
	}
	d := experiment.DefaultOptions()
	f := experiment.FastOptions()
	if f.Jobs >= d.Jobs {
		t.Fatal("fast options not smaller than default")
	}
}

func TestWorkflowFacade(t *testing.T) {
	cluster := mrcprm.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	w := mrcprm.NewWorkflow(0, 0, 100_000)
	a := w.AddTask("a", mrcprm.MapTask, 10_000)
	b := w.AddTask("b", mrcprm.ReduceTask, 5_000)
	if err := w.AddDep(a, b); err != nil {
		t.Fatal(err)
	}
	if w.CriticalPath() != 15_000 {
		t.Fatalf("critical path %d, want 15000", w.CriticalPath())
	}
	sched, err := mrcprm.SolveBatch(cluster, []*mrcprm.Job{w}, mrcprm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Assignments) != 2 || len(sched.LateJobs) != 0 {
		t.Fatalf("schedule %+v", sched)
	}
	m, err := mrcprm.Simulate(cluster, mrcprm.NewManager(cluster, mrcprm.DefaultConfig()), []*mrcprm.Job{w})
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCompleted != 1 || m.MakespanMS != 15_000 {
		t.Fatalf("open system: %d completed, makespan %d", m.JobsCompleted, m.MakespanMS)
	}
}

func TestSimulateTracedFacade(t *testing.T) {
	cluster := mrcprm.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	j := &mrcprm.Job{ID: 0, Arrival: 0, EarliestStart: 0, Deadline: 100_000}
	j.MapTasks = []*mrcprm.Task{{ID: "t0_m1", JobID: 0, Type: mrcprm.MapTask, Exec: 1000, Req: 1}}
	rec := mrcprm.NewTraceRecorder()
	m, err := mrcprm.SimulateInstrumented(cluster, mrcprm.NewManager(cluster, mrcprm.DefaultConfig()),
		[]*mrcprm.Job{j}, nil, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCompleted != 1 || rec.Len() != 2 {
		t.Fatalf("completed=%d events=%d", m.JobsCompleted, rec.Len())
	}
	if u := m.MapUtilization(cluster); u != 1 {
		t.Fatalf("map utilization %g", u)
	}
}

func TestSimulateRejectsBadCluster(t *testing.T) {
	if _, err := mrcprm.Simulate(mrcprm.Cluster{}, nil, nil); err == nil {
		t.Fatal("bad cluster accepted")
	}
	if _, err := mrcprm.SimulateInstrumented(mrcprm.Cluster{}, nil, nil, nil, mrcprm.NewTraceRecorder(), nil); err == nil {
		t.Fatal("bad cluster accepted")
	}
}

func TestManagerStatsExposed(t *testing.T) {
	cluster := mrcprm.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	cfg := mrcprm.DefaultConfig()
	cfg.DeferralLead = time.Minute
	mgr := mrcprm.NewManager(cluster, cfg)
	j := &mrcprm.Job{ID: 0, Arrival: 0, EarliestStart: 600_000, Deadline: 1_000_000}
	j.MapTasks = []*mrcprm.Task{{ID: "t0_m1", JobID: 0, Type: mrcprm.MapTask, Exec: 5000, Req: 1}}
	if _, err := mrcprm.Simulate(cluster, mgr, []*mrcprm.Job{j}); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().Deferred != 1 {
		t.Fatalf("stats %+v", mgr.Stats())
	}
}
