package core

import (
	"strings"
	"testing"

	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

func TestSolveBatchSimple(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	jobs := []*workload.Job{
		mkJob(0, 0, 0, 100_000, []int64{5000, 5000}, []int64{4000}),
		mkJob(1, 0, 0, 100_000, []int64{6000}, nil),
	}
	sched, err := SolveBatch(cluster, jobs, deterministicConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Assignments) != 4 {
		t.Fatalf("%d assignments, want 4", len(sched.Assignments))
	}
	if len(sched.LateJobs) != 0 || sched.Objective != 0 {
		t.Fatalf("late jobs %v objective %d", sched.LateJobs, sched.Objective)
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
	if !sched.Optimal {
		t.Fatal("zero-late schedule should be optimal")
	}
}

func TestSolveBatchRespectsEarliestStart(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	jobs := []*workload.Job{mkJob(0, 0, 30_000, 200_000, []int64{5000}, nil)}
	sched, err := SolveBatch(cluster, jobs, deterministicConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sched.Assignments[0].Start != 30_000 {
		t.Fatalf("start %d, want 30000", sched.Assignments[0].Start)
	}
}

func TestSolveBatchDetectsLateJobs(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	jobs := []*workload.Job{
		mkJob(0, 0, 0, 8_000, []int64{5000}, nil),
		mkJob(1, 0, 0, 8_000, []int64{5000}, nil), // only one can make it
	}
	sched, err := SolveBatch(cluster, jobs, deterministicConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.LateJobs) != 1 {
		t.Fatalf("late jobs %v, want exactly one", sched.LateJobs)
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
}

func TestSolveBatchDirectMode(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	cfg := deterministicConfig()
	cfg.Mode = ModeDirect
	jobs := []*workload.Job{
		mkJob(0, 0, 0, 100_000, []int64{5000, 5000}, []int64{4000}),
	}
	sched, err := SolveBatch(cluster, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
}

func TestSolveBatchSyntheticRoundTrip(t *testing.T) {
	cfg := workload.DefaultSynthetic()
	cfg.NumResources = 5
	cfg.NumMapHi = 15
	cfg.NumReduceHi = 8
	jobs, err := cfg.Generate(10, stats.NewStream(41, 42))
	if err != nil {
		t.Fatal(err)
	}
	cluster := sim.Cluster{NumResources: 5, MapSlots: 2, ReduceSlots: 2}
	sched, err := SolveBatch(cluster, jobs, deterministicConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, j := range jobs {
		total += j.NumTasks()
	}
	if len(sched.Assignments) != total {
		t.Fatalf("%d assignments for %d tasks", len(sched.Assignments), total)
	}
}

func TestSolveBatchRejectsBadInput(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	if _, err := SolveBatch(sim.Cluster{}, nil, deterministicConfig()); err == nil {
		t.Fatal("bad cluster accepted")
	}
	j := &workload.Job{ID: 0, Deadline: 100}
	if _, err := SolveBatch(cluster, []*workload.Job{j}, deterministicConfig()); err == nil {
		t.Fatal("job without map tasks accepted")
	}
}

// A batch schedule reports the durations the solver planned with. On a
// two-speed cluster with one map slot per machine the 6 s map lands on the
// half-speed machine and runs 12 s, past the 11 s deadline: the late-job
// list must agree with the objective, and the default (combined) config
// must pick the direct formulation instead of refusing the cluster.
func TestSolveBatchReportsMachineScaledDurations(t *testing.T) {
	cluster, err := TwoClassSpec(2, 1, 1, 2).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	j := mkJob(0, 0, 0, 11_000, []int64{10_000, 6_000}, nil)
	sched, err := SolveBatch(cluster, []*workload.Job{j}, deterministicConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sched.Objective != 1 || len(sched.LateJobs) != 1 || sched.LateJobs[0] != 0 {
		t.Fatalf("objective %d, late jobs %v; want 1 and [0]", sched.Objective, sched.LateJobs)
	}
	for _, a := range sched.Assignments {
		if want := sim.ScaledExec(a.Task.Exec, cluster.SpeedOf(a.Resource)); a.Dur != want || a.End() != a.Start+want {
			t.Fatalf("task %s on r%d: duration %d, end %d; want duration %d", a.Task.ID, a.Resource, a.Dur, a.End(), want)
		}
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
}

// Schedule.Validate is the one validator for MapReduce and workflow
// schedules; every way a schedule can break a rule must be rejected.
func TestScheduleValidateRejectsBrokenSchedules(t *testing.T) {
	// Resource 0 runs at speed 1, resource 1 at 0.5; one map and one reduce
	// slot each, 4 memory units.
	cluster, err := TwoClassSpec(2, 1, 1, 2).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	cluster.MemCapacity = 4
	classic := mkJob(0, 0, 0, 100_000, []int64{10_000}, []int64{4_000})
	classic.MapTasks[0].Mem = 3
	// A workflow job: p -> q in the map pool, s alone in the reduce pool.
	p := &workload.Task{ID: "p", JobID: 1, Type: workload.MapTask, Exec: 6_000, Req: 1}
	q := &workload.Task{ID: "q", JobID: 1, Type: workload.MapTask, Exec: 6_000, Req: 1, Preds: []*workload.Task{p}}
	s := &workload.Task{ID: "s", JobID: 1, Type: workload.ReduceTask, Exec: 4_000, Req: 1, Mem: 2}
	flow := &workload.Job{ID: 1, EarliestStart: 2_000, Deadline: 100_000, TaskPrecedence: true,
		MapTasks: []*workload.Task{p, q}, ReduceTasks: []*workload.Task{s}}
	const am, ar, ap, aq, as = 0, 1, 2, 3, 4
	valid := []Assignment{
		am: {Task: classic.MapTasks[0], Job: classic, Resource: 0, Start: 0, Dur: 10_000},
		ar: {Task: classic.ReduceTasks[0], Job: classic, Resource: 0, Start: 10_000, Dur: 4_000},
		ap: {Task: p, Job: flow, Resource: 1, Start: 2_000, Dur: 12_000},
		aq: {Task: q, Job: flow, Resource: 1, Start: 14_000, Dur: 12_000},
		as: {Task: s, Job: flow, Resource: 1, Start: 2_000, Dur: 8_000},
	}
	if err := (&Schedule{Assignments: valid}).Validate(cluster); err != nil {
		t.Fatalf("the valid schedule is rejected: %v", err)
	}
	on := func(a *Assignment, res int, start int64) {
		a.Resource, a.Start = res, start
		a.Dur = sim.ScaledExec(a.Task.Exec, cluster.SpeedOf(res))
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func(as []Assignment)
	}{
		{"slot overlap", "map capacity of resource 0", func(a []Assignment) { on(&a[ap], 0, 2_000) }},
		{"reduce before its maps", "before its job's maps end", func(a []Assignment) { on(&a[ar], 0, 9_000) }},
		{"successor before a predecessor", "before predecessor p ends", func(a []Assignment) { on(&a[aq], 0, 13_000) }},
		{"start before earliest start", "earliest start", func(a []Assignment) { on(&a[ap], 1, 1_000) }},
		{"overrun on a slow machine", "reports duration", func(a []Assignment) { a[ap].Dur = p.Exec }},
		{"memory over capacity", "memory capacity of resource 0", func(a []Assignment) { on(&a[as], 0, 2_000) }},
		{"unknown resource", "unknown resource", func(a []Assignment) { a[am].Resource = 2 }},
	} {
		broken := append([]Assignment(nil), valid...)
		tc.breakIt(broken)
		err := (&Schedule{Assignments: broken}).Validate(cluster)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}
