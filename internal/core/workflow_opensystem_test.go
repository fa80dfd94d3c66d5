package core_test

import (
	"testing"

	"mrcprm/internal/core"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// Open-system workflow scheduling: workflow jobs flow through the simulator
// under MRCP-RM like any other arrival; the simulator independently
// enforces every task-level precedence edge.

func runOpen(t *testing.T, cluster sim.Cluster, jobs []*workload.Job) *sim.Metrics {
	t.Helper()
	return runWith(t, cluster, cfg(), jobs)
}

func runWith(t *testing.T, cluster sim.Cluster, c core.Config, jobs []*workload.Job) *sim.Metrics {
	t.Helper()
	s, err := sim.New(cluster, core.New(cluster, c), jobs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCompleted != len(jobs) {
		t.Fatalf("completed %d of %d", m.JobsCompleted, len(jobs))
	}
	return m
}

// chain builds a map -> map -> reduce workflow of 10 s, 20 s and 5 s tasks.
func chain(t *testing.T, deadline int64) *workload.Job {
	w := workload.NewWorkflow(0, 0, deadline)
	a := w.AddTask("a", workload.MapTask, 10_000)
	b := w.AddTask("b", workload.MapTask, 20_000)
	c := w.AddTask("c", workload.ReduceTask, 5_000)
	must(t, w.Chain(a, b, c))
	return w
}

func TestOpenSystemChainWorkflow(t *testing.T) {
	cluster := sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}
	m := runOpen(t, cluster, []*workload.Job{chain(t, 300_000)})
	// Chain: 10 + 20 + 5 seconds.
	if m.MakespanMS != 35_000 {
		t.Fatalf("makespan %d, want 35000", m.MakespanMS)
	}
	if m.LateJobs != 0 {
		t.Fatal("late")
	}
}

func TestOpenSystemDiamondUnderContention(t *testing.T) {
	// Two diamond workflows arriving 5s apart on a small cluster.
	mkDiamond := func(id int, arrival int64) *workload.Job {
		w := workload.NewWorkflow(id, arrival, arrival+400_000)
		w.Arrival = arrival
		src := w.AddTask("src", workload.MapTask, 5_000)
		l := w.AddTask("l", workload.MapTask, 20_000)
		r := w.AddTask("r", workload.MapTask, 30_000)
		join := w.AddTask("join", workload.ReduceTask, 10_000)
		for _, d := range []struct{ p, s *workload.Task }{{src, l}, {src, r}, {l, join}, {r, join}} {
			must(t, w.AddDep(d.p, d.s))
		}
		return w
	}
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	m := runOpen(t, cluster, []*workload.Job{mkDiamond(0, 0), mkDiamond(1, 5_000)})
	if m.LateJobs != 0 {
		t.Fatalf("%d late despite generous deadlines", m.LateJobs)
	}
}

func TestOpenSystemMixedClassicAndWorkflowJobs(t *testing.T) {
	// A workflow job and classic MapReduce jobs share the cluster.
	w := workload.NewWorkflow(100, 0, 500_000)
	a := w.AddTask("a", workload.MapTask, 8_000)
	b := w.AddTask("b", workload.ReduceTask, 4_000)
	must(t, w.AddDep(a, b))

	gen := workload.DefaultSynthetic()
	gen.NumResources = 4
	gen.NumMapHi = 6
	gen.NumReduceHi = 3
	gen.Lambda = 0.05
	classic, err := gen.Generate(8, stats.NewStream(81, 82))
	if err != nil {
		t.Fatal(err)
	}
	cluster := sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}
	runOpen(t, cluster, append([]*workload.Job{w}, classic...))
}

// Task-level precedence must also work under the direct (per-resource)
// formulation, where matchmaking lives inside the CP model.
func TestOpenSystemWorkflowDirectMode(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	dcfg := cfg()
	dcfg.Mode = core.ModeDirect
	m := runWith(t, cluster, dcfg, []*workload.Job{chain(t, 300_000)})
	if m.MakespanMS != 35_000 || m.LateJobs != 0 {
		t.Fatalf("makespan %d late %d", m.MakespanMS, m.LateJobs)
	}
}

// The incremental path: a second workflow arrives while the first runs;
// started tasks freeze, pending ones re-plan, and the simulator verifies
// every precedence edge at execution time.
func TestOpenSystemIncrementalRescheduleWithPrecedence(t *testing.T) {
	mkChain := func(id int, arrival, deadline int64, execs ...int64) *workload.Job {
		w := workload.NewWorkflow(id, arrival, deadline)
		w.Arrival = arrival
		var prev *workload.Task
		for i, e := range execs {
			task := w.AddTask(taskName(i), workload.MapTask, e)
			if prev != nil {
				must(t, w.AddDep(prev, task))
			}
			prev = task
		}
		return w
	}
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	long := mkChain(0, 0, 1_000_000, 30_000, 30_000)
	tight := mkChain(1, 5_000, 45_000, 8_000) // must preempt the queue
	m := runOpen(t, cluster, []*workload.Job{long, tight})
	for _, r := range m.Records {
		if r.Job.ID == 1 && r.Late() {
			t.Fatalf("tight workflow completed at %d, deadline %d", r.Completion, r.Job.Deadline)
		}
	}
}
