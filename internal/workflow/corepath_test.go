package workflow

import (
	"reflect"
	"strings"
	"testing"

	"mrcprm/internal/core"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// Solve rides core.SolveBatch; these tests pin what that buys and that the
// two stay the same path.

// fanWorkflows returns two workflows whose task IDs collide (every
// generator names tasks per workflow): a fan-out/fan-in over both pools and
// a chain, with execution times that create start-time ties.
func fanWorkflows() []*Workflow {
	fan := New(0, 0, 60_000)
	src := fan.AddTask("a", workload.MapTask, 4_000)
	join := fan.AddTask("e", workload.ReduceTask, 4_000)
	for _, id := range []string{"b", "c", "d"} {
		mid := fan.AddTask(id, workload.MapTask, 6_000)
		must(fan.Chain(src, mid, join))
	}
	chain := New(1, 0, 40_000)
	a := chain.AddTask("a", workload.MapTask, 4_000)
	b := chain.AddTask("b", workload.ReduceTask, 6_000)
	c := chain.AddTask("c", workload.MapTask, 6_000)
	must(chain.Chain(a, b, c))
	return []*Workflow{fan, chain}
}

// must panics on a dependency error; edges inside one workflow never fail.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func TestReducePoolOnlyWorkflowSolvesInBatch(t *testing.T) {
	w := New(0, 0, 100_000)
	a := w.AddTask("a", workload.ReduceTask, 10_000)
	b := w.AddTask("b", workload.ReduceTask, 5_000)
	if err := w.AddDep(a, b); err != nil {
		t.Fatal(err)
	}
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	sched, err := Solve(cluster, []*Workflow{w}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
	if len(sched.Assignments) != 2 || sched.Assignments[1].Start != 10_000 {
		t.Fatalf("assignments %+v, want a at 0 and b at 10000", sched.Assignments)
	}
	// The open-system carrier still needs a map-pool task.
	if _, err := w.ToJob(0); err == nil || !strings.Contains(err.Error(), "no map-pool tasks") {
		t.Fatalf("ToJob of a reduce-only workflow: %v", err)
	}
}

// Workflows on a two-speed cluster and on a memory-constrained one are
// planned in the direct formulation with machine-scaled durations, so the
// schedule validates against what the machines really do.
func TestWorkflowBatchOnHeterogeneousAndMemoryClusters(t *testing.T) {
	twoSpeed, err := core.TwoClassSpec(4, 2, 2, 2).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	withMem := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2, MemCapacity: 8}
	for name, cluster := range map[string]sim.Cluster{"two-speed": twoSpeed, "memory": withMem} {
		sched, err := Solve(cluster, fanWorkflows(), cfg())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sched.Validate(cluster); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		late := map[int]bool{}
		for _, a := range sched.Assignments {
			if want := sim.ScaledExec(a.Task.Exec, cluster.SpeedOf(a.Resource)); a.Dur != want {
				t.Fatalf("%s: task %s on r%d planned for %d ms, runs %d", name, a.Task.ID, a.Resource, a.Dur, want)
			}
			if a.End() > a.Workflow.Deadline {
				late[a.Workflow.ID] = true
			}
		}
		if len(late) != len(sched.LateWorkflows) || len(late) != sched.Objective {
			t.Fatalf("%s: %d workflows end late, LateWorkflows %v, objective %d",
				name, len(late), sched.LateWorkflows, sched.Objective)
		}
	}
}

// The unit-slot matchmaker cannot place a two-slot task; the combined
// formulation must say so instead of placing it on one slot.
func TestCombinedModeRejectsWideWorkflowTask(t *testing.T) {
	w := New(0, 0, 100_000)
	w.AddTask("wide", workload.MapTask, 10_000).Req = 2
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 1}
	if _, err := Solve(cluster, []*Workflow{w}, cfg()); err == nil || !strings.Contains(err.Error(), "unit demands") {
		t.Fatalf("Req=2 in combined mode: %v", err)
	}
	direct := cfg()
	direct.Mode = core.ModeDirect
	sched, err := Solve(cluster, []*Workflow{w}, direct)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
}

func TestSolveEqualsSolveBatchOfToJobJobs(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	wfs := fanWorkflows()
	sched, err := Solve(cluster, wfs, cfg())
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*workload.Job
	for _, w := range wfs {
		j, err := w.ToJob(0)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	batch, err := core.SolveBatch(cluster, jobs, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if sched.Objective != batch.Objective || !reflect.DeepEqual(sched.LateWorkflows, batch.LateJobs) ||
		len(sched.Assignments) != len(batch.Assignments) {
		t.Fatalf("workflow objective %d late %v (%d placements), batch objective %d late %v (%d placements)",
			sched.Objective, sched.LateWorkflows, len(sched.Assignments),
			batch.Objective, batch.LateJobs, len(batch.Assignments))
	}
	for i, a := range sched.Assignments {
		b := batch.Assignments[i]
		if a.Workflow.ID != b.Job.ID || a.Task.ID != b.Task.ID || a.Resource != b.Resource || a.Start != b.Start || a.Dur != b.Dur {
			t.Fatalf("placement %d: workflow %d/%s r%d at %d for %d, batch %d/%s r%d at %d for %d", i,
				a.Workflow.ID, a.Task.ID, a.Resource, a.Start, a.Dur, b.Job.ID, b.Task.ID, b.Resource, b.Start, b.Dur)
		}
	}
}

// Task IDs are unique per workflow only, so the read-back's ties between
// same-named tasks of different workflows must be broken by model order,
// not by map iteration: twenty solves give one schedule.
func TestCollidingTaskIDsSolveDeterministically(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	type placement struct {
		wf, res    int
		task       string
		start, dur int64
	}
	var first []placement
	for run := 0; run < 20; run++ {
		sched, err := Solve(cluster, fanWorkflows(), cfg())
		if err != nil {
			t.Fatal(err)
		}
		var got []placement
		for _, a := range sched.Assignments {
			got = append(got, placement{a.Workflow.ID, a.Resource, a.Task.ID, a.Start, a.Dur})
		}
		if run == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d placed %v, run 0 placed %v", run, got, first)
		}
	}
}
