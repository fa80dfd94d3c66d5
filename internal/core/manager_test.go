package core

import (
	"encoding/json"
	"testing"
	"time"

	"mrcprm/internal/obs"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

func mkJob(id int, arrival, earliest, deadline int64, mapExec, redExec []int64) *workload.Job {
	j := &workload.Job{ID: id, Arrival: arrival, EarliestStart: earliest, Deadline: deadline}
	for i, e := range mapExec {
		j.MapTasks = append(j.MapTasks, &workload.Task{
			ID: taskID(id, "m", i), JobID: id, Type: workload.MapTask, Exec: e, Req: 1})
	}
	for i, e := range redExec {
		j.ReduceTasks = append(j.ReduceTasks, &workload.Task{
			ID: taskID(id, "r", i), JobID: id, Type: workload.ReduceTask, Exec: e, Req: 1})
	}
	return j
}

func taskID(job int, kind string, i int) string {
	return "t" + string(rune('0'+job)) + "_" + kind + string(rune('1'+i))
}

// deterministicConfig disables the wall-clock limit so tests are exactly
// reproducible.
func deterministicConfig() Config {
	cfg := DefaultConfig()
	cfg.SolveTimeLimit = 0
	cfg.NodeLimit = 50_000
	return cfg
}

func runJobs(t *testing.T, cluster sim.Cluster, cfg Config, jobs []*workload.Job) (*sim.Metrics, *Manager) {
	t.Helper()
	mgr := New(cluster, cfg)
	return runManager(t, cluster, mgr, jobs), mgr
}

// runManager drives the jobs to completion under an already built manager.
func runManager(t *testing.T, cluster sim.Cluster, mgr *Manager, jobs []*workload.Job) *sim.Metrics {
	t.Helper()
	s, err := sim.New(cluster, mgr, jobs)
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

func TestSingleJobOptimalSchedule(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	j := mkJob(0, 1000, 1000, 60_000, []int64{4000, 4000}, []int64{5000})
	m, _ := runJobs(t, cluster, deterministicConfig(), []*workload.Job{j})
	// Maps in parallel [1000,5000), reduce [5000,10000).
	if m.MakespanMS != 10_000 {
		t.Fatalf("makespan %d, want 10000", m.MakespanMS)
	}
	if m.LateJobs != 0 {
		t.Fatal("job should meet its deadline")
	}
}

func TestAdvanceReservationWaitsForEarliestStart(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	j := mkJob(0, 0, 50_000, 200_000, []int64{3000}, nil) // AR: s_j 50s after arrival
	cfg := deterministicConfig()
	cfg.DeferralLead = 10 * time.Second
	m, mgr := runJobs(t, cluster, cfg, []*workload.Job{j})
	if m.MakespanMS != 53_000 {
		t.Fatalf("makespan %d, want 53000 (start exactly at s_j)", m.MakespanMS)
	}
	if mgr.Stats().Deferred != 1 {
		t.Fatalf("deferred %d jobs, want 1", mgr.Stats().Deferred)
	}
}

func TestDeferralDisabledStillRespectsEarliestStart(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	j := mkJob(0, 0, 50_000, 200_000, []int64{3000}, nil)
	cfg := deterministicConfig()
	cfg.DeferralLead = 0
	m, mgr := runJobs(t, cluster, cfg, []*workload.Job{j})
	if m.MakespanMS != 53_000 {
		t.Fatalf("makespan %d, want 53000", m.MakespanMS)
	}
	if mgr.Stats().Deferred != 0 {
		t.Fatal("deferral should be disabled")
	}
}

func TestIncrementalReschedulingFreezesStartedTasks(t *testing.T) {
	// Job 0 starts its long map immediately; job 1 arrives mid-flight with
	// a tighter deadline. The running task must not move, and both jobs
	// complete validly (the simulator enforces every rule).
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	j0 := mkJob(0, 0, 0, 300_000, []int64{20_000, 20_000}, nil)
	j1 := mkJob(1, 5_000, 5_000, 40_000, []int64{10_000}, nil)
	m, _ := runJobs(t, cluster, deterministicConfig(), []*workload.Job{j0, j1})
	var rec0, rec1 sim.JobRecord
	for _, r := range m.Records {
		if r.Job.ID == 0 {
			rec0 = r
		} else {
			rec1 = r
		}
	}
	// j0's first map [0,20000) is frozen at j1's arrival; EDF should slot
	// j1's map [20000,30000) before j0's second map.
	if rec1.Completion != 30_000 {
		t.Fatalf("tight job completed at %d, want 30000", rec1.Completion)
	}
	if rec1.Late() || rec0.Late() {
		t.Fatal("no job should be late")
	}
	if rec0.Completion != 50_000 {
		t.Fatalf("loose job completed at %d, want 50000", rec0.Completion)
	}
}

func TestBnBAvoidsUnnecessaryLateJob(t *testing.T) {
	// Three jobs arrive together on one slot: job 0 takes 10 s and is due
	// at 10 s, jobs 1 and 2 take 6 s each and are due at 12 s. EDF's first
	// descent runs job 0 first and makes the other two late; the CP search
	// must improve on it and leave only job 0 late.
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	jobs := []*workload.Job{
		mkJob(0, 0, 0, 10_000, []int64{10_000}, nil),
		mkJob(1, 0, 0, 12_000, []int64{6_000}, nil),
		mkJob(2, 0, 0, 12_000, []int64{6_000}, nil),
	}
	mgr := New(cluster, deterministicConfig())
	sink := &solveWorkSink{}
	mgr.SetTelemetry(obs.New(sink))
	m := runManager(t, cluster, mgr, jobs)
	if m.LateJobs != 1 {
		t.Fatalf("%d late jobs, want 1 (the search should reorder)", m.LateJobs)
	}
	if len(sink.events) == 0 {
		t.Fatal("no solve events")
	}
	// The jobs arrive one by one; the last solve sees all three.
	if w := sink.events[len(sink.events)-1]; w.FirstObjective <= w.Objective {
		t.Fatalf("first incumbent %d is no worse than the final %d: EDF's first descent did not mislead",
			w.FirstObjective, w.Objective)
	}
}

func TestDirectModeSmallCluster(t *testing.T) {
	cluster := sim.Cluster{NumResources: 3, MapSlots: 1, ReduceSlots: 1}
	cfg := deterministicConfig()
	cfg.Mode = ModeDirect
	jobs := []*workload.Job{
		mkJob(0, 0, 0, 100_000, []int64{5000, 5000, 5000}, []int64{4000}),
		mkJob(1, 1000, 1000, 100_000, []int64{6000, 6000}, nil),
	}
	m, _ := runJobs(t, cluster, cfg, jobs)
	if m.LateJobs != 0 {
		t.Fatalf("%d late jobs", m.LateJobs)
	}
}

func TestCombinedMatchesDirectOnSmallInstance(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	jobs := func() []*workload.Job {
		return []*workload.Job{
			mkJob(0, 0, 0, 40_000, []int64{8000, 8000}, []int64{6000}),
			mkJob(1, 2000, 2000, 60_000, []int64{7000}, []int64{5000}),
		}
	}
	cfgC := deterministicConfig()
	mC, _ := runJobs(t, cluster, cfgC, jobs())
	cfgD := deterministicConfig()
	cfgD.Mode = ModeDirect
	mD, _ := runJobs(t, cluster, cfgD, jobs())
	if mC.LateJobs != mD.LateJobs {
		t.Fatalf("late jobs differ: combined %d vs direct %d", mC.LateJobs, mD.LateJobs)
	}
}

func TestSyntheticWorkloadEndToEnd(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumResources = 10
	cfg.NumMapHi = 20
	cfg.NumReduceHi = 10
	cfg.Lambda = 0.02
	jobs, err := cfg.Generate(30, stats.NewStream(21, 22))
	if err != nil {
		t.Fatal(err)
	}
	cluster := sim.Cluster{NumResources: cfg.NumResources,
		MapSlots: cfg.MapSlotsPerResource, ReduceSlots: cfg.ReduceSlotsPerResource}
	m, mgr := runJobs(t, cluster, deterministicConfig(), jobs)
	// Generous Table 3 deadlines at low utilization: lateness should be rare.
	if m.P() > 0.2 {
		t.Fatalf("P = %.2f implausibly high", m.P())
	}
	st := mgr.Stats()
	if st.Rounds == 0 {
		t.Fatal("solver never ran")
	}
}

func TestFacebookWorkloadSmallEndToEnd(t *testing.T) {
	fb := workload.FacebookConfig{NumJobs: 30, Lambda: 0.001, DeadlineUL: 2, NumResources: 16}
	jobs, err := fb.Generate(stats.NewStream(31, 32))
	if err != nil {
		t.Fatal(err)
	}
	// Drop the two largest types to keep the test fast.
	var trimmed []*workload.Job
	for _, j := range jobs {
		if len(j.MapTasks) <= 800 {
			trimmed = append(trimmed, j)
		}
	}
	cluster := sim.Cluster{NumResources: 16, MapSlots: 1, ReduceSlots: 1}
	cfg := deterministicConfig()
	cfg.NodeLimit = 2000 // keep the B&B improvement cheap; this test checks validity, not quality
	m, _ := runJobs(t, cluster, cfg, trimmed)
	if m.JobsCompleted != len(trimmed) {
		t.Fatal("jobs lost")
	}
}

func TestDeterminism(t *testing.T) {
	gen := func() []*workload.Job {
		cfg := workload.DefaultSynthetic()
		cfg.NumResources = 5
		cfg.NumMapHi = 10
		cfg.NumReduceHi = 5
		cfg.Lambda = 0.05
		jobs, err := cfg.Generate(15, stats.NewStream(77, 78))
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	cluster := sim.Cluster{NumResources: 5, MapSlots: 2, ReduceSlots: 2}
	m1, _ := runJobs(t, cluster, deterministicConfig(), gen())
	m2, _ := runJobs(t, cluster, deterministicConfig(), gen())
	if m1.MakespanMS != m2.MakespanMS || m1.LateJobs != m2.LateJobs || m1.T() != m2.T() {
		t.Fatalf("nondeterministic run: %v/%d vs %v/%d",
			m1.MakespanMS, m1.LateJobs, m2.MakespanMS, m2.LateJobs)
	}
}

func TestStatsAccounting(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	j := mkJob(0, 0, 0, 100_000, []int64{1000}, nil)
	_, mgr := runJobs(t, cluster, deterministicConfig(), []*workload.Job{j})
	st := mgr.Stats()
	if st.Rounds != 1 || st.SolverNodes == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHorizonFor(t *testing.T) {
	j := mkJob(0, 0, 5000, 100_000, []int64{2000, 3000}, []int64{1000})
	w := &jobWork{job: j, pendingMaps: j.MapTasks, pendingReds: j.ReduceTasks}
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	h := horizonFor(1000, cluster, []*jobWork{w})
	// 5000 (release) + 1 + 6000 (total) + 3000 (max) + 1.
	if h != 5001+6000+3000+1 {
		t.Fatalf("horizon %d", h)
	}
	// A half-speed machine doubles the worst-case serial budget.
	cluster.Speed = []float64{1.0, 0.5}
	h = horizonFor(1000, cluster, []*jobWork{w})
	if h != 5001+12000+6000+1 {
		t.Fatalf("hetero horizon %d", h)
	}
}

func TestModeStrings(t *testing.T) {
	if ModeCombined.String() != "combined" || ModeDirect.String() != "direct" {
		t.Fatal("mode strings")
	}
}

// solveWork is what TestSolveEventCarriesWorkCounters and
// TestBnBAvoidsUnnecessaryLateJob read off a "solve" event.
type solveWork struct {
	Objective      int   `json:"objective"`
	FirstObjective int   `json:"first_objective"`
	Nodes          int64 `json:"nodes"`
	PickWork       int64 `json:"pick_work"`
	ProfileBuilds  int64 `json:"profile_builds"`
	SweepWork      int64 `json:"sweep_work"`
}

type solveWorkSink struct{ events []solveWork }

func (s *solveWorkSink) Emit(e *obs.Event) {
	if e.Kind != "solve" {
		return
	}
	var w solveWork
	if err := json.Unmarshal(e.AppendJSON(nil), &w); err != nil {
		panic(err)
	}
	s.events = append(s.events, w)
}

// The solver/solve event carries the per-node work counters: the interval
// keys the branching rule evaluated, the profiles derived from their event
// lists (one per timetable, the combined model's map and reduce ones), and
// the tasks the timetables' sweeps examined.
func TestSolveEventCarriesWorkCounters(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	mgr := New(cluster, deterministicConfig())
	sink := &solveWorkSink{}
	mgr.SetTelemetry(obs.New(sink))
	runManager(t, cluster, mgr, []*workload.Job{
		mkJob(0, 0, 0, 100_000, []int64{10_000, 10_000}, []int64{5000}),
		mkJob(1, 0, 0, 25_000, []int64{10_000}, []int64{5000}),
	})
	if len(sink.events) == 0 {
		t.Fatal("no solve events")
	}
	var swept int64
	for i, w := range sink.events {
		if w.Nodes > 0 && w.PickWork == 0 {
			t.Errorf("solve %d: %d nodes but pick_work 0", i, w.Nodes)
		}
		if w.ProfileBuilds != 2 {
			t.Errorf("solve %d: profile_builds %d, want one per timetable (2)", i, w.ProfileBuilds)
		}
		swept += w.SweepWork
	}
	if swept == 0 {
		t.Error("no solve reported sweep_work")
	}
}
