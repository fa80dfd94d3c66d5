package core_test

import (
	"reflect"
	"strings"
	"testing"

	"mrcprm/internal/core"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// Workflows ride core.SolveBatch like any job; these tests pin what that
// buys.

// fanWorkflows returns two workflows whose task IDs collide (every
// generator names tasks per workflow): a fan-out/fan-in over both pools and
// a chain, with execution times that create start-time ties.
func fanWorkflows(t *testing.T) []*workload.Job {
	fan := workload.NewWorkflow(0, 0, 60_000)
	src := fan.AddTask("a", workload.MapTask, 4_000)
	join := fan.AddTask("e", workload.ReduceTask, 4_000)
	for _, id := range []string{"b", "c", "d"} {
		mid := fan.AddTask(id, workload.MapTask, 6_000)
		must(t, fan.Chain(src, mid, join))
	}
	chain := workload.NewWorkflow(1, 0, 40_000)
	a := chain.AddTask("a", workload.MapTask, 4_000)
	b := chain.AddTask("b", workload.ReduceTask, 6_000)
	c := chain.AddTask("c", workload.MapTask, 6_000)
	must(t, chain.Chain(a, b, c))
	return []*workload.Job{fan, chain}
}

// A workflow may live in the reduce pool alone, in a batch and in the open
// system alike.
func TestReducePoolOnlyWorkflowSolvesInBatch(t *testing.T) {
	w := workload.NewWorkflow(0, 0, 100_000)
	a := w.AddTask("a", workload.ReduceTask, 10_000)
	b := w.AddTask("b", workload.ReduceTask, 5_000)
	must(t, w.AddDep(a, b))
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	sched := solve(t, cluster, []*workload.Job{w}, cfg())
	if len(sched.Assignments) != 2 || sched.Assignments[1].Start != 10_000 {
		t.Fatalf("assignments %+v, want a at 0 and b at 10000", sched.Assignments)
	}
	if m := runOpen(t, cluster, []*workload.Job{w}); m.MakespanMS != 15_000 || m.LateJobs != 0 {
		t.Fatalf("open system: makespan %d, %d late; want 15000 and 0", m.MakespanMS, m.LateJobs)
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
		sched := solve(t, cluster, fanWorkflows(t), cfg())
		late := map[int]bool{}
		for _, a := range sched.Assignments {
			if want := sim.ScaledExec(a.Task.Exec, cluster.SpeedOf(a.Resource)); a.Dur != want {
				t.Fatalf("%s: task %s on r%d planned for %d ms, runs %d", name, a.Task.ID, a.Resource, a.Dur, want)
			}
			if a.End() > a.Job.Deadline {
				late[a.Job.ID] = true
			}
		}
		if len(late) != len(sched.LateJobs) || len(late) != sched.Objective {
			t.Fatalf("%s: %d workflows end late, LateJobs %v, objective %d",
				name, len(late), sched.LateJobs, sched.Objective)
		}
	}
}

// The unit-slot matchmaker cannot place a two-slot task; the combined
// formulation must say so instead of placing it on one slot.
func TestCombinedModeRejectsWideWorkflowTask(t *testing.T) {
	w := workload.NewWorkflow(0, 0, 100_000)
	w.AddTask("wide", workload.MapTask, 10_000).Req = 2
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 1}
	if _, err := core.SolveBatch(cluster, []*workload.Job{w}, cfg()); err == nil || !strings.Contains(err.Error(), "unit demands") {
		t.Fatalf("Req=2 in combined mode: %v", err)
	}
	direct := cfg()
	direct.Mode = core.ModeDirect
	solve(t, cluster, []*workload.Job{w}, direct)
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
		sched := solve(t, cluster, fanWorkflows(t), cfg())
		var got []placement
		for _, a := range sched.Assignments {
			got = append(got, placement{a.Job.ID, a.Resource, a.Task.ID, a.Start, a.Dur})
		}
		if run == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d placed %v, run 0 placed %v", run, got, first)
		}
	}
}
