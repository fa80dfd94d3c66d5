package workflow

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

func TestChainSchedulesSequentially(t *testing.T) {
	w := New(0, 0, 100_000)
	a := w.AddTask("a", workload.MapTask, 10_000)
	b := w.AddTask("b", workload.MapTask, 20_000)
	c := w.AddTask("c", workload.ReduceTask, 5_000)
	if err := w.Chain(a, b, c); err != nil {
		t.Fatal(err)
	}
	cluster := sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}
	sched, err := Solve(cluster, []*Workflow{w}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
	starts := map[string]int64{}
	for _, asg := range sched.Assignments {
		starts[asg.Task.ID] = asg.Start
	}
	if starts["a"] != 0 || starts["b"] != 10_000 || starts["c"] != 30_000 {
		t.Fatalf("starts %v", starts)
	}
	if len(sched.LateWorkflows) != 0 {
		t.Fatal("late despite generous deadline")
	}
}

func TestDiamondRespectsJoin(t *testing.T) {
	w := New(0, 0, 1_000_000)
	src := w.AddTask("src", workload.MapTask, 5_000)
	l := w.AddTask("left", workload.MapTask, 20_000)
	r := w.AddTask("right", workload.MapTask, 30_000)
	join := w.AddTask("join", workload.ReduceTask, 10_000)
	for _, dep := range []struct{ p, s *Task }{{src, l}, {src, r}, {l, join}, {r, join}} {
		if err := w.AddDep(dep.p, dep.s); err != nil {
			t.Fatal(err)
		}
	}
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	sched, err := Solve(cluster, []*Workflow{w}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
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
	w := New(0, 0, 1000)
	a := w.AddTask("a", workload.MapTask, 10)
	b := w.AddTask("b", workload.MapTask, 10)
	if err := w.AddDep(a, b); err != nil {
		t.Fatal(err)
	}
	if err := w.AddDep(b, a); err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}

func TestValidateCatchesBadWorkflows(t *testing.T) {
	w := New(0, 0, 1000)
	if err := w.Validate(); err == nil {
		t.Fatal("empty workflow accepted")
	}
	w.AddTask("a", workload.MapTask, 0)
	if err := w.Validate(); err == nil {
		t.Fatal("zero execution time accepted")
	}
	w2 := New(1, 0, 1000)
	w2.AddTask("x", workload.MapTask, 10)
	w2.AddTask("x", workload.MapTask, 10)
	if err := w2.Validate(); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	w3 := New(2, 500, 100)
	w3.AddTask("a", workload.MapTask, 10)
	if err := w3.Validate(); err == nil {
		t.Fatal("deadline before earliest start accepted")
	}
	w4 := New(3, 0, 1000)
	a := w4.AddTask("a", workload.MapTask, 10)
	if err := w4.AddDep(a, a); err == nil {
		t.Fatal("self-dependency accepted")
	}
	w5 := New(4, 0, 1000)
	b := w5.AddTask("b", workload.MapTask, 10)
	if err := w4.AddDep(a, b); err == nil {
		t.Fatal("cross-workflow dependency accepted")
	}
}

func TestCriticalPathAndSinks(t *testing.T) {
	w := New(0, 0, 1_000_000)
	a := w.AddTask("a", workload.MapTask, 10)
	b := w.AddTask("b", workload.MapTask, 20)
	c := w.AddTask("c", workload.MapTask, 5)
	if err := w.AddDep(a, b); err != nil {
		t.Fatal(err)
	}
	if err := w.AddDep(a, c); err != nil {
		t.Fatal(err)
	}
	if got := w.CriticalPath(); got != 30 {
		t.Fatalf("critical path %d, want 30 (a->b)", got)
	}
	// The sinks, b and c, are the tasks no task names as a predecessor.
	hasSucc := map[*Task]bool{}
	for _, task := range w.Tasks {
		for _, p := range task.Preds() {
			hasSucc[p] = true
		}
	}
	if sinks := len(w.Tasks) - len(hasSucc); sinks != 2 {
		t.Fatalf("%d sinks, want 2", sinks)
	}
	if got := w.TotalWork(); got != 35 {
		t.Fatalf("total work %d", got)
	}
}

func TestLatenessObjectiveAcrossWorkflows(t *testing.T) {
	// Two single-task workflows contend for one map slot; only one can
	// meet its deadline. The solver must sacrifice exactly one.
	mk := func(id int, deadline int64) *Workflow {
		w := New(id, 0, deadline)
		w.AddTask("t", workload.MapTask, 10_000)
		return w
	}
	sched, err := Solve(oneCluster(), []*Workflow{mk(0, 12_000), mk(1, 12_000)}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.LateWorkflows) != 1 {
		t.Fatalf("late workflows %v, want one", sched.LateWorkflows)
	}
	if !sched.Optimal {
		t.Fatal("one-late should be proved optimal")
	}
}

func TestEarliestStartRespected(t *testing.T) {
	w := New(0, 50_000, 200_000)
	w.AddTask("t", workload.MapTask, 10_000)
	sched, err := Solve(oneCluster(), []*Workflow{w}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if sched.Assignments[0].Start != 50_000 {
		t.Fatalf("start %d, want 50000", sched.Assignments[0].Start)
	}
}

// The MapReduce conversion must agree with core.SolveBatch on the same job.
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
	var wfs []*Workflow
	for _, j := range jobs {
		wf := FromMapReduceJob(j)
		if err := wf.Validate(); err != nil {
			t.Fatal(err)
		}
		wfs = append(wfs, wf)
	}
	sched, err := Solve(cluster, wfs, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
	if len(sched.LateWorkflows) != len(batch.LateJobs) {
		t.Fatalf("late count differs: workflow %v vs mapreduce %v",
			sched.LateWorkflows, batch.LateJobs)
	}
}

// Property: random DAGs solve to schedules that validate, and every sink
// of an on-time workflow completes by the deadline.
func TestQuickRandomDAGsValidate(t *testing.T) {
	rng := stats.NewStream(71, 72)
	f := func(seed uint16) bool {
		local := rng.Derive(uint64(seed))
		nWf := 1 + local.IntN(3)
		var wfs []*Workflow
		for id := 0; id < nWf; id++ {
			w := New(id, int64(local.IntN(1000)), 0)
			n := 2 + local.IntN(6)
			for i := 0; i < n; i++ {
				pool := workload.MapTask
				if local.IntN(2) == 1 {
					pool = workload.ReduceTask
				}
				w.AddTask(taskName(i), pool, int64(100+local.IntN(5000)))
			}
			// Random forward edges keep the graph acyclic.
			for i := 0; i < n; i++ {
				for k := i + 1; k < n; k++ {
					if local.IntN(3) == 0 {
						if err := w.AddDep(w.Tasks[i], w.Tasks[k]); err != nil {
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
		sched, err := Solve(cluster, wfs, cfg())
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
