// Workflows end to end: the paper's future-work generalization from
// two-phase MapReduce jobs to task DAGs with an end-to-end SLA. A workflow is
// a workload.Job with TaskPrecedence, built by workload.NewWorkflow; these
// tests drive it through core.SolveBatch and, in
// workflow_opensystem_test.go, through the simulator under MRCP-RM — the
// paths every MapReduce job takes.

package core_test

import (
	"strings"
	"testing"
	"testing/quick"

	"mrcprm/internal/core"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

func cfg() core.Config {
	c := core.DefaultConfig()
	c.SolveTimeLimit = 0
	c.NodeLimit = 20_000
	return c
}

func oneCluster() sim.Cluster { return sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1} }

// solve runs a batch of workflows and checks the schedule against the
// cluster's rules.
func solve(t *testing.T, cluster sim.Cluster, wfs []*workload.Job, c core.Config) *core.Schedule {
	t.Helper()
	sched, err := core.SolveBatch(cluster, wfs, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
	return sched
}

// must fails the test on a dependency error; edges inside one workflow
// never fail.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestChainSchedulesSequentially(t *testing.T) {
	w := workload.NewWorkflow(0, 0, 100_000)
	a := w.AddTask("a", workload.MapTask, 10_000)
	b := w.AddTask("b", workload.MapTask, 20_000)
	c := w.AddTask("c", workload.ReduceTask, 5_000)
	must(t, w.Chain(a, b, c))
	sched := solve(t, sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}, []*workload.Job{w}, cfg())
	starts := map[string]int64{}
	for _, asg := range sched.Assignments {
		starts[asg.Task.ID] = asg.Start
	}
	if starts["a"] != 0 || starts["b"] != 10_000 || starts["c"] != 30_000 {
		t.Fatalf("starts %v", starts)
	}
	if len(sched.LateJobs) != 0 {
		t.Fatal("late despite generous deadline")
	}
}

func TestDiamondRespectsJoin(t *testing.T) {
	w := workload.NewWorkflow(0, 0, 1_000_000)
	src := w.AddTask("src", workload.MapTask, 5_000)
	l := w.AddTask("left", workload.MapTask, 20_000)
	r := w.AddTask("right", workload.MapTask, 30_000)
	join := w.AddTask("join", workload.ReduceTask, 10_000)
	for _, dep := range []struct{ p, s *workload.Task }{{src, l}, {src, r}, {l, join}, {r, join}} {
		must(t, w.AddDep(dep.p, dep.s))
	}
	sched := solve(t, sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}, []*workload.Job{w}, cfg())
	var joinStart int64
	for _, a := range sched.Assignments {
		if a.Task == join {
			joinStart = a.Start
		}
	}
	// src [0,5k), left/right in parallel, right ends 35k: join at 35k.
	if joinStart != 35_000 {
		t.Fatalf("join starts at %d, want 35000", joinStart)
	}
}

func TestCycleRejected(t *testing.T) {
	w := workload.NewWorkflow(0, 0, 1000)
	a := w.AddTask("a", workload.MapTask, 10)
	b := w.AddTask("b", workload.MapTask, 10)
	must(t, w.AddDep(a, b))
	must(t, w.AddDep(b, a))
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
	if _, err := core.SolveBatch(oneCluster(), []*workload.Job{w}, cfg()); err == nil {
		t.Fatal("batch solve accepted a cyclic workflow")
	}
}

func TestValidateCatchesBadWorkflows(t *testing.T) {
	w := workload.NewWorkflow(0, 0, 1000)
	if err := w.Validate(); err == nil {
		t.Fatal("empty workflow accepted")
	}
	w.AddTask("a", workload.MapTask, 0)
	if err := w.Validate(); err == nil {
		t.Fatal("zero execution time accepted")
	}
	w2 := workload.NewWorkflow(1, 0, 1000)
	w2.AddTask("x", workload.MapTask, 10)
	w2.AddTask("x", workload.MapTask, 10)
	if err := w2.Validate(); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	w3 := workload.NewWorkflow(2, 500, 100)
	w3.AddTask("a", workload.MapTask, 10)
	if err := w3.Validate(); err == nil {
		t.Fatal("deadline before earliest start accepted")
	}
	w4 := workload.NewWorkflow(3, 0, 1000)
	a := w4.AddTask("a", workload.MapTask, 10)
	if err := w4.AddDep(a, a); err == nil {
		t.Fatal("self-dependency accepted")
	}
	w5 := workload.NewWorkflow(4, 0, 1000)
	b := w5.AddTask("b", workload.MapTask, 10)
	if err := w4.AddDep(a, b); err == nil {
		t.Fatal("cross-workflow dependency accepted")
	}
	// An edge set by hand to a task of another job is caught by Validate.
	a.Preds = append(a.Preds, b)
	if err := w4.Validate(); err == nil || !strings.Contains(err.Error(), "outside the job") {
		t.Fatalf("dependency on another job's task: %v", err)
	}
	a.Preds = nil
	a.Req = 0
	if err := w4.Validate(); err == nil {
		t.Fatal("zero demand accepted")
	}
}

func TestCriticalPathAndSinks(t *testing.T) {
	w := workload.NewWorkflow(0, 0, 1_000_000)
	a := w.AddTask("a", workload.MapTask, 10)
	b := w.AddTask("b", workload.MapTask, 20)
	c := w.AddTask("c", workload.MapTask, 5)
	must(t, w.AddDep(a, b))
	must(t, w.AddDep(a, c))
	if got := w.CriticalPath(); got != 30 {
		t.Fatalf("critical path %d, want 30 (a->b)", got)
	}
	// The sinks, b and c, are the tasks no task names as a predecessor.
	tasks := w.Tasks()
	hasSucc := map[*workload.Task]bool{}
	for _, task := range tasks {
		for _, p := range task.Preds {
			hasSucc[p] = true
		}
	}
	if sinks := len(tasks) - len(hasSucc); sinks != 2 {
		t.Fatalf("%d sinks, want 2", sinks)
	}
	if got := w.TotalWork(); got != 35 {
		t.Fatalf("total work %d", got)
	}
	// A classic job's longest chain is its longest map then its longest
	// reduce.
	classic := &workload.Job{ID: 1, Deadline: 1000}
	classic.AddTask("m1", workload.MapTask, 10)
	classic.AddTask("m2", workload.MapTask, 30)
	classic.AddTask("r1", workload.ReduceTask, 7)
	if got := classic.CriticalPath(); got != 37 {
		t.Fatalf("classic critical path %d, want 37", got)
	}
}

func TestLatenessObjectiveAcrossWorkflows(t *testing.T) {
	// Two single-task workflows contend for one map slot; only one can
	// meet its deadline. The solver must sacrifice exactly one.
	mk := func(id int, deadline int64) *workload.Job {
		w := workload.NewWorkflow(id, 0, deadline)
		w.AddTask("t", workload.MapTask, 10_000)
		return w
	}
	sched := solve(t, oneCluster(), []*workload.Job{mk(0, 12_000), mk(1, 12_000)}, cfg())
	if len(sched.LateJobs) != 1 {
		t.Fatalf("late workflows %v, want one", sched.LateJobs)
	}
	if !sched.Optimal {
		t.Fatal("one-late should be proved optimal")
	}
}

func TestEarliestStartRespected(t *testing.T) {
	w := workload.NewWorkflow(0, 50_000, 200_000)
	w.AddTask("t", workload.MapTask, 10_000)
	sched := solve(t, oneCluster(), []*workload.Job{w}, cfg())
	if sched.Assignments[0].Start != 50_000 {
		t.Fatalf("start %d, want 50000", sched.Assignments[0].Start)
	}
}

// A classic job and its twin with the reduce-after-all-maps barrier spelled
// out as task edges are the same problem: the batch solver must agree on
// both.
func TestFromMapReduceJobEquivalence(t *testing.T) {
	gen := workload.DefaultSynthetic()
	gen.NumResources = 4
	gen.NumMapHi = 8
	gen.NumReduceHi = 4
	jobs, err := gen.Generate(4, stats.NewStream(61, 62))
	if err != nil {
		t.Fatal(err)
	}
	cluster := sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}
	batch, err := core.SolveBatch(cluster, jobs, cfg())
	if err != nil {
		t.Fatal(err)
	}
	var wfs []*workload.Job
	for _, j := range jobs {
		w := workload.NewWorkflow(j.ID, j.EarliestStart, j.Deadline)
		var maps []*workload.Task
		for _, mt := range j.MapTasks {
			maps = append(maps, w.AddTask(mt.ID, workload.MapTask, mt.Exec))
		}
		for _, rt := range j.ReduceTasks {
			r := w.AddTask(rt.ID, workload.ReduceTask, rt.Exec)
			for _, m := range maps {
				must(t, w.AddDep(m, r))
			}
		}
		wfs = append(wfs, w)
	}
	sched := solve(t, cluster, wfs, cfg())
	if len(sched.LateJobs) != len(batch.LateJobs) {
		t.Fatalf("late count differs: workflow %v vs mapreduce %v", sched.LateJobs, batch.LateJobs)
	}
}

// Property: random DAGs solve to schedules that validate.
func TestQuickRandomDAGsValidate(t *testing.T) {
	rng := stats.NewStream(71, 72)
	f := func(seed uint16) bool {
		local := rng.Derive(uint64(seed))
		nWf := 1 + local.IntN(3)
		var wfs []*workload.Job
		for id := 0; id < nWf; id++ {
			w := workload.NewWorkflow(id, int64(local.IntN(1000)), 0)
			n := 2 + local.IntN(6)
			for i := 0; i < n; i++ {
				pool := workload.MapTask
				if local.IntN(2) == 1 {
					pool = workload.ReduceTask
				}
				w.AddTask(taskName(i), pool, int64(100+local.IntN(5000)))
			}
			// Random forward edges over the insertion order keep the graph
			// acyclic; the job regroups its tasks by pool.
			byName := map[string]*workload.Task{}
			for _, task := range w.Tasks() {
				byName[task.ID] = task
			}
			for i := 0; i < n; i++ {
				for k := i + 1; k < n; k++ {
					if local.IntN(3) == 0 {
						if err := w.AddDep(byName[taskName(i)], byName[taskName(k)]); err != nil {
							return false
						}
					}
				}
			}
			w.Deadline = w.EarliestStart + w.CriticalPath()*int64(1+local.IntN(3))
			if w.Validate() != nil {
				return false
			}
			wfs = append(wfs, w)
		}
		cluster := sim.Cluster{NumResources: 1 + local.IntN(3), MapSlots: 1 + int64(local.IntN(2)), ReduceSlots: 1 + int64(local.IntN(2))}
		sched, err := core.SolveBatch(cluster, wfs, cfg())
		if err != nil {
			return false
		}
		return sched.Validate(cluster) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func taskName(i int) string { return string(rune('a' + i)) }
