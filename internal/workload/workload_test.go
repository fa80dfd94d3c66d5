package workload

import (
	"math"
	"testing"
	"testing/quick"

	"mrcprm/internal/stats"
)

func testStream() *stats.Stream { return stats.NewStream(99, 101) }

func TestLPTMakespanSimple(t *testing.T) {
	mk := func(execs ...int64) []*Task {
		var ts []*Task
		for i, e := range execs {
			ts = append(ts, newTask(0, MapTask, i, e))
		}
		return ts
	}
	cases := []struct {
		tasks []*Task
		slots int64
		want  int64
	}{
		{mk(10), 1, 10},
		{mk(10, 20, 30), 1, 60},
		{mk(10, 20, 30), 3, 30},
		{mk(10, 20, 30), 10, 30},   // more slots than tasks: longest task
		{mk(3, 3, 3, 3), 2, 6},     // perfect split
		{mk(5, 4, 3, 3, 3), 2, 10}, // LPT: 5|4 -> 5,3|4 ... -> loads {8,10}
		{nil, 4, 0},                // no tasks
	}
	for i, c := range cases {
		if got := lptMakespan(c.tasks, c.slots); got != c.want {
			t.Errorf("case %d: makespan %d, want %d", i, got, c.want)
		}
	}
}

// Property: the LPT makespan is bounded below by both the longest task and
// the average load, and above by total work.
func TestQuickLPTMakespanBounds(t *testing.T) {
	rng := testStream()
	f := func(nTasks, nSlots uint8) bool {
		n := int(nTasks%40) + 1
		s := int64(nSlots%8) + 1
		var tasks []*Task
		var total, longest int64
		for i := 0; i < n; i++ {
			e := int64(1 + rng.IntN(1000))
			tasks = append(tasks, newTask(0, MapTask, i, e))
			total += e
			if e > longest {
				longest = e
			}
		}
		ms := lptMakespan(tasks, s)
		lower := max64(longest, (total+s-1)/s)
		return ms >= lower && ms <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestSyntheticDefaults(t *testing.T) {
	c := DefaultSynthetic()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.TotalMapSlots() != 100 || c.TotalReduceSlots() != 100 {
		t.Fatalf("default slots %d/%d, want 100/100", c.TotalMapSlots(), c.TotalReduceSlots())
	}
}

func TestSyntheticGenerateShapes(t *testing.T) {
	c := DefaultSynthetic()
	jobs, err := c.Generate(200, testStream())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 200 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	prevArrival := int64(-1)
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if n := int64(len(j.MapTasks)); n < c.NumMapLo || n > c.NumMapHi {
			t.Fatalf("job %d has %d map tasks", j.ID, n)
		}
		if n := int64(len(j.ReduceTasks)); n < c.NumReduceLo || n > c.NumReduceHi {
			t.Fatalf("job %d has %d reduce tasks", j.ID, n)
		}
		for _, mt := range j.MapTasks {
			if mt.Exec < 1000 || mt.Exec > c.EmaxSec*1000 {
				t.Fatalf("map exec %dms outside [1s, %ds]", mt.Exec, c.EmaxSec)
			}
			if mt.Exec%1000 != 0 {
				t.Fatalf("map exec %dms is not whole seconds", mt.Exec)
			}
		}
		if j.Arrival <= prevArrival {
			t.Fatalf("arrivals not strictly increasing at job %d", j.ID)
		}
		prevArrival = j.Arrival
	}
}

// The reduce execution time rule: re = 3*Σme/k_rd + DU[1,10] seconds.
func TestSyntheticReduceRule(t *testing.T) {
	c := DefaultSynthetic()
	jobs, err := c.Generate(50, testStream())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		var totalMap int64
		for _, mt := range j.MapTasks {
			totalMap += mt.Exec
		}
		base := 3 * totalMap / int64(len(j.ReduceTasks))
		for _, rt := range j.ReduceTasks {
			noise := rt.Exec - base
			if noise < 1000 || noise > 10000 {
				t.Fatalf("job %d reduce noise %dms outside [1s,10s]", j.ID, noise)
			}
		}
	}
}

func TestSyntheticEarliestStartRule(t *testing.T) {
	c := DefaultSynthetic()
	c.P = 0.5
	jobs, err := c.Generate(400, testStream())
	if err != nil {
		t.Fatal(err)
	}
	delayed := 0
	for _, j := range jobs {
		if j.EarliestStart > j.Arrival {
			delayed++
			off := j.EarliestStart - j.Arrival
			if off < 1000 || off > c.SmaxSec*1000 {
				t.Fatalf("job %d start offset %dms outside [1s, smax]", j.ID, off)
			}
		}
	}
	if frac := float64(delayed) / 400; math.Abs(frac-0.5) > 0.12 {
		t.Fatalf("delayed fraction %g far from p=0.5", frac)
	}

	c.P = 0
	jobs, err = c.Generate(50, testStream())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.EarliestStart != j.Arrival {
			t.Fatal("p=0 must give s_j = v_j")
		}
	}
}

func TestSyntheticDeadlineRule(t *testing.T) {
	c := DefaultSynthetic()
	jobs, err := c.Generate(100, testStream())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		te := j.MinExecTime(c.TotalMapSlots(), c.TotalReduceSlots())
		rel := j.Deadline - j.EarliestStart
		if rel < te {
			t.Fatalf("job %d deadline slack %d below TE %d (multiplier < 1?)", j.ID, rel, te)
		}
		if float64(rel) > float64(te)*c.DeadlineUL {
			t.Fatalf("job %d deadline slack %d above TE*dUL", j.ID, rel)
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := DefaultSynthetic()
	bad.Lambda = 0
	if _, err := bad.Generate(1, testStream()); err == nil {
		t.Fatal("zero arrival rate accepted")
	}
	bad = DefaultSynthetic()
	bad.P = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("p > 1 accepted")
	}
	bad = DefaultSynthetic()
	bad.DeadlineUL = 0.5
	if err := bad.Validate(); err == nil {
		t.Fatal("dUL < 1 accepted")
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	c := DefaultSynthetic()
	a, err := c.Generate(30, stats.NewStream(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Generate(30, stats.NewStream(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Deadline != b[i].Deadline ||
			a[i].NumTasks() != b[i].NumTasks() {
			t.Fatalf("job %d differs between equal-seed generations", i)
		}
	}
}

func TestFacebookTypeMixExact(t *testing.T) {
	counts := typeMix(1000)
	for i, jt := range FacebookTable4 {
		if counts[i] != jt.NumJobs {
			t.Fatalf("type %d count %d, want %d", jt.Type, counts[i], jt.NumJobs)
		}
	}
}

func TestFacebookTypeMixScaled(t *testing.T) {
	for _, n := range []int{10, 100, 250, 999} {
		counts := typeMix(n)
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != n {
			t.Fatalf("typeMix(%d) sums to %d", n, total)
		}
	}
}

func TestFacebookGenerate(t *testing.T) {
	c := FacebookConfig{NumJobs: 100, Lambda: 0.001, DeadlineUL: 2, NumResources: 64}
	jobs, err := c.Generate(testStream())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 100 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	shapes := map[[2]int]bool{}
	for _, jt := range FacebookTable4 {
		shapes[[2]int{jt.NumMap, jt.NumRed}] = true
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if !shapes[[2]int{len(j.MapTasks), len(j.ReduceTasks)}] {
			t.Fatalf("job %d shape (%d,%d) not in Table 4", j.ID, len(j.MapTasks), len(j.ReduceTasks))
		}
		if j.EarliestStart != j.Arrival {
			t.Fatal("facebook workload must have p=0")
		}
	}
}

func TestFacebookExecDistributions(t *testing.T) {
	// Sample means should approximate the LN means (48.6s map, 1.2e3 s reduce).
	rng := testStream()
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(lnMS(FacebookMapExec, rng))
	}
	mean := sum / n
	want := FacebookMapExec.Mean()
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("map exec sample mean %.0fms, want ~%.0fms", mean, want)
	}
}

func TestJobAccessors(t *testing.T) {
	j := &Job{ID: 3}
	j.MapTasks = []*Task{newTask(3, MapTask, 1, 1000), newTask(3, MapTask, 2, 2000)}
	j.ReduceTasks = []*Task{newTask(3, ReduceTask, 1, 3000)}
	if j.NumTasks() != 3 {
		t.Fatal("NumTasks")
	}
	if j.TotalWork() != 6000 {
		t.Fatal("TotalWork")
	}
	if got := len(j.Tasks()); got != 3 {
		t.Fatal("Tasks")
	}
	if j.Tasks()[0].Type != MapTask || j.Tasks()[2].Type != ReduceTask {
		t.Fatal("Tasks order")
	}
	if j.MapTasks[0].ID != "t3_m1" || j.ReduceTasks[0].ID != "t3_r1" {
		t.Fatal("task naming")
	}
}

func TestTaskTypeString(t *testing.T) {
	if MapTask.String() != "map" || ReduceTask.String() != "reduce" {
		t.Fatal("TaskType strings")
	}
}

func TestJobValidateCatchesBadJobs(t *testing.T) {
	j := &Job{ID: 1, Arrival: 100, EarliestStart: 50, Deadline: 500}
	j.MapTasks = []*Task{newTask(1, MapTask, 1, 1000)}
	if err := j.Validate(); err == nil {
		t.Fatal("earliest start before arrival accepted")
	}
	j = &Job{ID: 1, Arrival: 0, EarliestStart: 0, Deadline: 500}
	if err := j.Validate(); err == nil {
		t.Fatal("job without map tasks accepted")
	}
	j.MapTasks = []*Task{newTask(2, MapTask, 1, 1000)}
	if err := j.Validate(); err == nil {
		t.Fatal("wrong parent job accepted")
	}
	// Only a workflow may live in the reduce pool alone.
	j.MapTasks = nil
	j.ReduceTasks = []*Task{newTask(1, ReduceTask, 1, 1000)}
	if err := j.Validate(); err == nil {
		t.Fatal("MapReduce job without map tasks accepted")
	}
	j.TaskPrecedence = true
	if err := j.Validate(); err != nil {
		t.Fatalf("reduce-pool-only workflow refused: %v", err)
	}
	// A task's type names its list, which the simulator counts it by.
	for _, typ := range []TaskType{MapTask, 2} {
		j.ReduceTasks[0].Type = typ
		if err := j.Validate(); err == nil {
			t.Fatalf("task of type %d in the reduce list accepted", typ)
		}
	}
}
