package minedf

import (
	"testing"

	"mrcprm/internal/rmkit"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

func mkJob(id int, arrival, earliest, deadline int64, mapExec, redExec []int64) *workload.Job {
	j := &workload.Job{ID: id, Arrival: arrival, EarliestStart: earliest, Deadline: deadline}
	for i, e := range mapExec {
		j.MapTasks = append(j.MapTasks, &workload.Task{
			ID: "m", JobID: id, Type: workload.MapTask, Exec: e, Req: 1})
		_ = i
	}
	for _, e := range redExec {
		j.ReduceTasks = append(j.ReduceTasks, &workload.Task{
			ID: "r", JobID: id, Type: workload.ReduceTask, Exec: e, Req: 1})
	}
	return j
}

func run(t *testing.T, cluster sim.Cluster, jobs []*workload.Job) *sim.Metrics {
	t.Helper()
	s, err := sim.New(cluster, New(cluster), jobs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCompleted != len(jobs) {
		t.Fatalf("completed %d of %d jobs", m.JobsCompleted, len(jobs))
	}
	return m
}

func TestPhaseProfile(t *testing.T) {
	j := mkJob(0, 0, 0, 1000, []int64{10, 20, 30}, nil)
	p := profileOf(j.MapTasks)
	if p.n != 3 || p.avg != 20 || p.max != 30 {
		t.Fatalf("profile %+v", p)
	}
	// ARIA bounds on 2 slots: lower 3*20/2 = 30, upper 2*20/2 + 30 = 50; avg 40.
	if got := p.duration(2); got != 40 {
		t.Fatalf("duration(2) = %g, want 40", got)
	}
	if profileOf(nil).duration(5) != 0 {
		t.Fatal("empty phase should have zero duration")
	}
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	j := mkJob(0, 0, 0, 1_000_000, []int64{5000, 5000}, []int64{4000})
	m := run(t, cluster, []*workload.Job{j})
	if m.LateJobs != 0 {
		t.Fatal("job late despite generous deadline")
	}
	// Two map slots: maps in parallel [0,5000), reduce [5000,9000).
	if m.MakespanMS != 9000 {
		t.Fatalf("makespan %d, want 9000", m.MakespanMS)
	}
}

func TestEDFPriorityUnderContention(t *testing.T) {
	// One map slot, two jobs. The later-arriving job has the tighter
	// deadline and must preempt the queue (not the running task).
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	loose := mkJob(0, 0, 0, 100_000, []int64{2000, 2000, 2000}, nil)
	tight := mkJob(1, 100, 100, 6000, []int64{2000}, nil)
	m := run(t, cluster, []*workload.Job{loose, tight})
	var tightRec, looseRec sim.JobRecord
	for _, r := range m.Records {
		if r.Job.ID == 1 {
			tightRec = r
		} else {
			looseRec = r
		}
	}
	// tight's task should run right after the first task of loose finishes:
	// completes at 4000 <= 6000.
	if tightRec.Late() {
		t.Fatalf("tight job completed at %d, deadline %d", tightRec.Completion, tightRec.Job.Deadline)
	}
	if looseRec.Late() {
		t.Fatal("loose job should still meet its generous deadline")
	}
}

func TestWorkConservingUsesSpareSlots(t *testing.T) {
	// A job with 4 map tasks and a distant deadline needs only 1 slot by
	// the model, but with 4 free slots and work conservation it should
	// still finish in one wave.
	cluster := sim.Cluster{NumResources: 4, MapSlots: 1, ReduceSlots: 1}
	j := mkJob(0, 0, 0, 10_000_000, []int64{3000, 3000, 3000, 3000}, nil)
	m := run(t, cluster, []*workload.Job{j})
	if m.MakespanMS != 3000 {
		t.Fatalf("makespan %d, want 3000 (all four maps in parallel)", m.MakespanMS)
	}
}

func TestReduceWaitsForMaps(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	j := mkJob(0, 0, 0, 1_000_000, []int64{1000, 9000}, []int64{1000})
	m := run(t, cluster, []*workload.Job{j})
	// Reduce can only start at 9000 (after the long map).
	if m.MakespanMS != 10000 {
		t.Fatalf("makespan %d, want 10000", m.MakespanMS)
	}
}

func TestEarliestStartDeferral(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	j := mkJob(0, 0, 7000, 1_000_000, []int64{1000}, nil) // AR request
	m := run(t, cluster, []*workload.Job{j})
	if m.MakespanMS != 8000 {
		t.Fatalf("makespan %d, want 8000 (start at s_j = 7000)", m.MakespanMS)
	}
}

func TestMinAllocationModel(t *testing.T) {
	cluster := sim.Cluster{NumResources: 10, MapSlots: 1, ReduceSlots: 1}
	mgr := New(cluster)
	// 10 maps of 10s each; deadline in 25s. One slot: est 100s. Five
	// slots: lower 20, upper 28, avg 24 <= 25. Four slots: lower 25,
	// upper 32.5, avg 28.75 > 25.
	j := mkJob(0, 0, 0, 25_000, repeat(10_000, 10), nil)
	// Impossible deadline: wide open.
	j2 := mkJob(1, 0, 0, 1_000, repeat(10_000, 10), nil)
	// Both jobs are registered and none of their tasks has run: the
	// simulator's records read 10 maps left each.
	s, err := sim.New(cluster, mgr, []*workload.Job{j, j2})
	if err != nil {
		t.Fatal(err)
	}
	js := &rmkit.JobState{Job: j, Sim: s.Job(j), PendingMaps: j.MapTasks}
	sm, sr := mgr.minAllocation(js, 0)
	if sm != 5 || sr != 0 {
		t.Fatalf("allocation (%d,%d), want (5,0)", sm, sr)
	}
	js2 := &rmkit.JobState{Job: j2, Sim: s.Job(j2), PendingMaps: j2.MapTasks}
	sm, _ = mgr.minAllocation(js2, 0)
	if sm != 10 {
		t.Fatalf("infeasible job should get max allocation, got %d", sm)
	}
}

func repeat(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestManyJobsComplete(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumResources = 10
	cfg.Lambda = 0.02
	cfg.NumMapHi = 20
	cfg.NumReduceHi = 10
	jobs, err := cfg.Generate(40, stats.NewStream(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	cluster := sim.Cluster{NumResources: cfg.NumResources,
		MapSlots: cfg.MapSlotsPerResource, ReduceSlots: cfg.ReduceSlotsPerResource}
	m := run(t, cluster, jobs)
	if m.Invocations == 0 || m.O() < 0 {
		t.Fatal("overhead accounting broken")
	}
}
