package core

import (
	"fmt"
	"sort"
	"testing"

	"mrcprm/internal/cp"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// oraclePlacements is the read-back as installCombined, installDirect and
// SolveBatch each wrote it before placements existed: collect the
// non-frozen tasks by ranging over a task → interval map (random order),
// sort.Slice them by the formulation's keys, then match combined models
// onto unit slots or read direct resources off the solution. It is only
// defined for instances whose task IDs are unique across jobs, which is
// what those three callers saw.
func oraclePlacements(bm *builtModel, res *cp.Result, mk *matchmaker) []assignment {
	byTask := make(map[*workload.Task]*cp.Interval)
	frozen := make(map[*workload.Task]bool)
	jobOf := make(map[*workload.Task]*workload.Job)
	for _, mt := range bm.tasks {
		byTask[mt.task] = mt.iv
		frozen[mt.task] = mt.frozen
		jobOf[mt.task] = mt.job
	}
	type item struct {
		task  *workload.Task
		start int64
	}
	var items []item
	for t, iv := range byTask {
		if !frozen[t] {
			items = append(items, item{t, res.Starts[iv.ID()]})
		}
	}
	var out []assignment
	if bm.mode == ModeDirect {
		sort.Slice(items, func(a, b int) bool { return items[a].task.ID < items[b].task.ID })
		for _, it := range items {
			out = append(out, assignment{task: it.task, res: res.Res[byTask[it.task].ID()], slot: -1, start: it.start})
		}
		return out
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].start != items[b].start {
			return items[a].start < items[b].start
		}
		if items[a].task.Type != items[b].task.Type {
			return items[a].task.Type == workload.MapTask
		}
		return items[a].task.ID < items[b].task.ID
	})
	for _, it := range items {
		out = append(out, mk.place(it.task, it.start, jobOf[it.task].TaskPrecedence))
	}
	return out
}

// readbackInstance is one random model for the read-back oracle.
type readbackInstance struct {
	cluster sim.Cluster
	mode    SolveMode
	now     int64
	work    []*jobWork
	slots   map[*workload.Task]int // unit slots of the frozen tasks (combined)
}

// randomReadbackInstance draws 2-5 jobs with unique task IDs. frozen starts
// each job's first map before now on its own slot or resource; taskPrec
// gives every other job random forward precedence edges instead of the
// two-phase barrier; mem gives tasks memory demands.
func randomReadbackInstance(rng *stats.Stream, cluster sim.Cluster, mode SolveMode, frozen, taskPrec, mem bool) readbackInstance {
	in := readbackInstance{cluster: cluster, mode: mode, slots: map[*workload.Task]int{}}
	if frozen {
		in.now = 1000
	}
	nJobs := 2 + rng.IntN(4)
	for id := 0; id < nJobs; id++ {
		j := &workload.Job{ID: id, EarliestStart: int64(rng.IntN(3)) * 1000,
			Deadline: 10_000 + int64(rng.IntN(30_000)), TaskPrecedence: taskPrec && id%2 == 0}
		newTask := func(typ workload.TaskType, kind string, i int) *workload.Task {
			t := &workload.Task{ID: fmt.Sprintf("t%d_%s%d", id, kind, i), JobID: id, Type: typ,
				Exec: int64(1+rng.IntN(6)) * 1000, Req: 1}
			if mem {
				t.Mem = int64(1 + rng.IntN(3))
			}
			return t
		}
		for i, n := 0, 1+rng.IntN(4); i < n; i++ {
			j.MapTasks = append(j.MapTasks, newTask(workload.MapTask, "m", i))
		}
		for i, n := 0, rng.IntN(4); i < n; i++ {
			j.ReduceTasks = append(j.ReduceTasks, newTask(workload.ReduceTask, "r", i))
		}
		if j.TaskPrecedence {
			tasks := j.Tasks()
			for i := range tasks {
				for k := i + 1; k < len(tasks); k++ {
					if rng.IntN(3) == 0 {
						tasks[k].Preds = append(tasks[k].Preds, tasks[i])
					}
				}
			}
		}
		w := &jobWork{job: j, pendingMaps: j.MapTasks, pendingReds: j.ReduceTasks}
		if frozen {
			// Distinct unit slots (combined) and at most MapSlots running
			// maps per resource (direct): id < 6 <= resources * map slots.
			t := j.MapTasks[0]
			j.EarliestStart = 0
			w.pendingMaps = j.MapTasks[1:]
			w.frozenMaps = []frozenTask{{task: t, res: id % cluster.NumResources, start: 0,
				exec: sim.ScaledExec(t.Exec, cluster.SpeedOf(id%cluster.NumResources))}}
			in.slots[t] = id
		}
		in.work = append(in.work, w)
	}
	return in
}

// matchmaker returns a fresh matchmaker with the instance's frozen tasks
// pinned, or nil for a direct model.
func (in readbackInstance) matchmaker() *matchmaker {
	if in.mode == ModeDirect {
		return nil
	}
	mk := newMatchmaker(in.cluster.NumResources, in.cluster.MapSlots, in.cluster.ReduceSlots, new(Stats))
	for _, w := range in.work {
		for _, f := range w.frozenMaps {
			mk.pin(f.task, in.slots[f.task], f.start, f.exec)
		}
	}
	return mk
}

// placements must read a solution back exactly as the three hand-written
// read-backs it replaced did: the same (task, resource, slot, start)
// sequence on every formulation.
func TestPlacementsMatchOracle(t *testing.T) {
	uniform := sim.Cluster{NumResources: 3, MapSlots: 2, ReduceSlots: 2}
	hetero, err := TwoClassSpec(4, 2, 2, 2).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	hetero.MemCapacity = 6
	kinds := []struct {
		name                  string
		cluster               sim.Cluster
		mode                  SolveMode
		frozen, taskPrec, mem bool
	}{
		{"combined-frozen", uniform, ModeCombined, true, false, false},
		{"combined-precedence", uniform, ModeCombined, false, true, false},
		{"direct-frozen", uniform, ModeDirect, true, false, false},
		{"direct-precedence", uniform, ModeDirect, false, true, false},
		{"hetero-memory", hetero, Config{}.formulation(hetero), true, true, true},
	}
	for ki, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			rng := stats.NewStream(91, uint64(ki))
			for n := 0; n < 30; n++ {
				in := randomReadbackInstance(rng.Derive(uint64(n)), k.cluster, k.mode, k.frozen, k.taskPrec, k.mem)
				bm, err := new(round).buildModel(in.mode, in.now, in.cluster, in.work, nil)
				if err != nil {
					t.Fatalf("instance %d: %v", n, err)
				}
				res := cp.NewSolver(bm.model, cp.Params{NodeLimit: 2000}).Solve()
				if !res.HasSolution() {
					t.Fatalf("instance %d: no solution (%v)", n, res.Status)
				}
				got, err := bm.placements(&res, in.matchmaker())
				if err != nil {
					t.Fatalf("instance %d: %v", n, err)
				}
				want := oraclePlacements(bm, &res, in.matchmaker())
				if len(got) != len(want) {
					t.Fatalf("instance %d: %d placements, oracle has %d", n, len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.task != w.task || g.res != w.res || g.slot != w.slot || g.start != w.start {
						t.Fatalf("instance %d placement %d: got %s on r%d slot %d at %d, oracle %s on r%d slot %d at %d",
							n, i, g.task.ID, g.res, g.slot, g.start, w.task.ID, w.res, w.slot, w.start)
					}
				}
			}
		})
	}
}

// Building a classic model allocates per task and per job, never per
// lookup: builtModel holds no map and the member lists are sized up front.
// These 20 jobs (2270 tasks) take 8,043 allocations in a fresh round; the
// bound sits below the 8,578 the same build cost with a task → interval, a
// frozen and a lateness map filled along the way. A round that built the
// model before rebuilds it in the memory it grew.
func TestBuildModelAllocations(t *testing.T) {
	gen := workload.DefaultSynthetic()
	jobs, err := gen.Generate(20, stats.NewStream(17, 18))
	if err != nil {
		t.Fatal(err)
	}
	cluster := sim.Cluster{NumResources: gen.NumResources,
		MapSlots: gen.MapSlotsPerResource, ReduceSlots: gen.ReduceSlotsPerResource}
	work := make([]*jobWork, len(jobs))
	tasks := 0
	for i, j := range jobs {
		work[i] = &jobWork{job: j, pendingMaps: j.MapTasks, pendingReds: j.ReduceTasks}
		tasks += j.NumTasks()
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := new(round).buildModel(ModeCombined, 0, cluster, work, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d jobs, %d tasks: %.0f allocations per buildModel in a fresh round", len(jobs), tasks, allocs)
	if limit := float64(8450); allocs > limit {
		t.Fatalf("buildModel made %.0f allocations in a fresh round, limit %.0f", allocs, limit)
	}
	rd := new(round)
	allocs = testing.AllocsPerRun(5, func() {
		if _, err := rd.buildModel(ModeCombined, 0, cluster, work, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per buildModel in a recycled round", allocs)
	if allocs > 0 {
		t.Fatalf("buildModel made %.0f allocations in a recycled round, want none", allocs)
	}
}

// A reschedule on a manager's recycled round allocates what the solve's
// results own — the solver, each incumbent's assignment and the
// improvement timeline — and nothing that grows with the model: building
// and solving a direct heterogeneous model with memory timetables a second
// time costs the same few allocations at 285 tasks and at 2,376.
func TestRecycledSolveAllocations(t *testing.T) {
	gen := workload.DefaultSynthetic()
	gen.TaskMemLo, gen.TaskMemHi = 1, 4
	spec := TwoClassSpec(gen.NumResources, gen.MapSlotsPerResource, gen.ReduceSlotsPerResource, 2)
	spec.MemCapacity = 8
	cluster, err := spec.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	mode := Config{}.formulation(cluster)
	for _, nJobs := range []int{2, 20} {
		jobs, err := gen.Generate(nJobs, stats.NewStream(23, 5))
		if err != nil {
			t.Fatal(err)
		}
		work := make([]*jobWork, len(jobs))
		for i, j := range jobs {
			j.EarliestStart = 0
			work[i] = &jobWork{job: j, pendingMaps: j.MapTasks, pendingReds: j.ReduceTasks}
		}
		rd := new(round)
		var res cp.Result
		allocs := testing.AllocsPerRun(1, func() {
			bm, err := rd.buildModel(mode, 0, cluster, work, nil)
			if err != nil {
				t.Fatal(err)
			}
			res = cp.NewSolver(bm.model, cp.Params{NodeLimit: 1000}).Solve()
		})
		t.Logf("%d jobs, %d tasks: %.0f allocations on the second build and solve (%d solutions)",
			nJobs, len(rd.bm.tasks), allocs, res.Search.Solutions)
		if !res.HasSolution() {
			t.Fatalf("%d jobs: no solution (%v)", nJobs, res.Status)
		}
		if limit := float64(8); allocs > limit {
			t.Fatalf("%d jobs: the second build and solve made %.0f allocations, limit %.0f", nJobs, allocs, limit)
		}
	}
}
