package core

import (
	"fmt"
	"slices"
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
// what those three callers saw. The combined keys lack the old
// maps-before-reduces tie-break, which ordered only the installs across
// the two slot pools. Combined models are matched onto the busy lists of
// busyMatchmaker, not onto the free times of the matchmaker under test.
func oraclePlacements(bm *builtModel, res *cp.Result, mk *busyMatchmaker) []assignment {
	byTask := make(map[*workload.Task]*cp.Interval)
	frozen := make(map[*workload.Task]bool)
	for _, mt := range bm.tasks {
		byTask[mt.task] = mt.iv
		frozen[mt.task] = mt.frozen
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
		return items[a].task.ID < items[b].task.ID
	})
	for _, it := range items {
		a, err := mk.place(it.task, it.start)
		if err != nil {
			return nil
		}
		out = append(out, a)
	}
	return out
}

// readbackInstance is one random model for the read-back oracle.
type readbackInstance struct {
	cluster sim.Cluster
	mode    SolveMode
	now     int64
	work    []*jobWork
	down    []bool                 // resources in an outage; nil when all are up
	slots   map[*workload.Task]int // unit slots of the running tasks (see pinnedSlots)
}

// randomReadbackInstance draws 2-5 jobs with unique task IDs. taskPrec
// gives every other job random forward precedence edges instead of the
// two-phase barrier; mem gives tasks memory demands. frozen sets now to
// 1000 and starts some of each job's tasks before it, some of them as
// stragglers, running past it on distinct unit slots: maps, a classic
// job's reduces once its maps have completed, or a workflow's
// predecessor-free tasks. down takes one resource out, and it holds no
// running task.
func randomReadbackInstance(rng *stats.Stream, cluster sim.Cluster, mode SolveMode, frozen, taskPrec, mem, down bool) readbackInstance {
	in := readbackInstance{cluster: cluster, mode: mode, slots: map[*workload.Task]int{}}
	if down {
		in.down = make([]bool, cluster.NumResources)
		in.down[rng.IntN(cluster.NumResources)] = true
	}
	// The free unit slots of each pool on up resources, and the memory the
	// running tasks hold on each resource.
	var free [2][]int
	for k, per := range [2]int64{cluster.MapSlots, cluster.ReduceSlots} {
		for s := 0; s < cluster.NumResources*int(per); s++ {
			if in.down == nil || !in.down[s/int(per)] {
				free[k] = append(free[k], s)
			}
		}
	}
	memUsed := make([]int64, cluster.NumResources)
	// run starts t before now on a random free unit slot of its pool, or
	// reports false when no slot (or no resource's memory) can take it.
	run := func(w *jobWork, t *workload.Task) bool {
		k, per := 0, cluster.MapSlots
		if t.Type == workload.ReduceTask {
			k, per = 1, cluster.ReduceSlots
		}
		for n, off := len(free[k]), rng.IntN(len(free[k])+1); n > 0; n-- {
			i := (off + n) % len(free[k])
			s := free[k][i]
			r := s / int(per)
			if cluster.MemCapacity > 0 && memUsed[r]+t.Mem > cluster.MemCapacity {
				continue
			}
			memUsed[r] += t.Mem
			free[k] = append(free[k][:i], free[k][i+1:]...)
			exec := sim.ScaledExec(t.Exec, cluster.SpeedOf(r))
			if rng.IntN(3) == 0 {
				exec += exec / 2
			}
			f := frozenTask{task: t, res: r, start: in.now - 1 - rng.Int64N(min(exec-1, in.now)), exec: exec}
			if t.Type == workload.MapTask {
				w.frozenMaps = append(w.frozenMaps, f)
			} else {
				w.frozenReds = append(w.frozenReds, f)
			}
			in.slots[t] = s
			return true
		}
		return false
	}
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
		w := &jobWork{job: j}
		// pend keeps the tasks not started as pending, starting each one
		// startable says may run with probability 1/2.
		pend := func(tasks []*workload.Task, startable func(*workload.Task) bool) []*workload.Task {
			var pending []*workload.Task
			for _, t := range tasks {
				if !frozen || !startable(t) || rng.IntN(2) == 0 || !run(w, t) {
					pending = append(pending, t)
				}
			}
			return pending
		}
		never := func(*workload.Task) bool { return false }
		always := func(*workload.Task) bool { return true }
		switch {
		case j.TaskPrecedence:
			noPreds := func(t *workload.Task) bool { return len(t.Preds) == 0 }
			w.pendingMaps, w.pendingReds = pend(j.MapTasks, noPreds), pend(j.ReduceTasks, noPreds)
		case frozen && len(j.ReduceTasks) > 0 && rng.IntN(2) == 0:
			// The maps have completed: they are not part of the work.
			w.pendingReds = pend(j.ReduceTasks, always)
		default:
			w.pendingMaps, w.pendingReds = pend(j.MapTasks, always), pend(j.ReduceTasks, never)
		}
		if frozen {
			j.EarliestStart = 0
		}
		in.work = append(in.work, w)
	}
	in.slots = pinnedSlots(in)
	return in
}

// pinnedSlots moves every running task of in onto the unit slot
// matchmaker.pinRound pins it on: the first of its resource's slots that
// no earlier running task (in work order) took. The matchmaker keeps no
// slot identity between rounds, so this is the slot it pins a task on.
func pinnedSlots(in readbackInstance) map[*workload.Task]int {
	slots := map[*workload.Task]int{}
	taken := map[[2]int]bool{}
	for _, w := range in.work {
		for _, frozen := range [2][]frozenTask{w.frozenMaps, w.frozenReds} {
			for _, f := range frozen {
				per := int(in.cluster.MapSlots)
				if f.task.Type == workload.ReduceTask {
					per = int(in.cluster.ReduceSlots)
				}
				s := f.res * per
				for taken[[2]int{int(f.task.Type), s}] {
					s++
				}
				taken[[2]int{int(f.task.Type), s}] = true
				slots[f.task] = s
			}
		}
	}
	return slots
}

// matchmaker returns the matchmaker a manager's round would place into,
// with the down resources blocked and the running tasks pinned, or nil for
// a direct model.
func (in readbackInstance) matchmaker(t *testing.T) *matchmaker {
	if in.mode == ModeDirect {
		return nil
	}
	mk := new(matchmaker)
	if err := mk.pinRound(in.cluster, in.work, in.down); err != nil {
		t.Fatal(err)
	}
	return mk
}

// oracle returns the busy-list matchmaker over in's cluster with the down
// resources blocked from now on and every running task on its unit slot in
// slots.
func (in readbackInstance) oracle(slots map[*workload.Task]int) *busyMatchmaker {
	mk := &busyMatchmaker{perRes: [2]int64{in.cluster.MapSlots, in.cluster.ReduceSlots}}
	for k, per := range mk.perRes {
		mk.slots[k] = make([]slotTimeline, in.cluster.NumResources*int(per))
	}
	for r, d := range in.down {
		if d {
			for k, per := range mk.perRes {
				for s := r * int(per); s < (r+1)*int(per); s++ {
					mk.slots[k][s].insert(in.now, forever)
				}
			}
		}
	}
	for _, w := range in.work {
		for _, frozen := range [2][]frozenTask{w.frozenMaps, w.frozenReds} {
			for _, f := range frozen {
				mk.slots[f.task.Type][slots[f.task]].insert(f.start, f.start+f.exec)
			}
		}
	}
	return mk
}

// slotTimeline is one unit slot's committed busy intervals, kept sorted by
// start: the reference form of a slot, every span rather than only the
// free time the matchmaker keeps.
type slotTimeline struct {
	busy []busySpan
}

type busySpan struct{ from, to int64 }

// fits reports whether [from, to) is free on the slot.
func (s *slotTimeline) fits(from, to int64) bool {
	i := sort.Search(len(s.busy), func(i int) bool { return s.busy[i].to > from })
	return i == len(s.busy) || s.busy[i].from >= to
}

// gapBefore returns from minus the end of the latest busy span ending at or
// before from (or from itself on an empty prefix) — the matchmaking
// "remaining gap" criterion.
func (s *slotTimeline) gapBefore(from int64) int64 {
	i := sort.Search(len(s.busy), func(i int) bool { return s.busy[i].to > from })
	if i == 0 {
		return from
	}
	return from - s.busy[i-1].to
}

// insert commits [from, to) on the slot.
func (s *slotTimeline) insert(from, to int64) {
	i := sort.Search(len(s.busy), func(i int) bool { return s.busy[i].from >= from })
	s.busy = slices.Insert(s.busy, i, busySpan{from, to})
}

// busyMatchmaker is the placement oracle: the map and reduce pools' unit
// slots as busy lists, and how many slots of each pool a resource holds.
type busyMatchmaker struct {
	slots  [2][]slotTimeline
	perRes [2]int64
}

// place maps one task onto the free unit slot with the smallest gap before
// start, the lowest on ties, checking every busy span.
func (mk *busyMatchmaker) place(t *workload.Task, start int64) (assignment, error) {
	slots, perRes := mk.slots[t.Type], mk.perRes[t.Type]
	best := -1
	var bestGap int64
	for i := range slots {
		if !slots[i].fits(start, start+t.Exec) {
			continue
		}
		gap := slots[i].gapBefore(start)
		if best < 0 || gap < bestGap {
			best, bestGap = i, gap
		}
	}
	if best < 0 {
		return assignment{}, fmt.Errorf("core: task %s has no free unit slot at %d", t.ID, start)
	}
	slots[best].insert(start, start+t.Exec)
	return assignment{task: t, res: best / int(perRes), slot: best, start: start}, nil
}

// checkExact asserts what the matchmaker's exactness promises, reading the
// running tasks from the instance rather than from any matchmaker: every
// placed task starts at its CP start on an up resource; a combined
// placement's unit slot belongs to its resource, and no unit slot holds
// two tasks (running or placed) at once; direct placements keep every
// resource's map and reduce load within its slots.
func checkExact(in readbackInstance, bm *builtModel, res *cp.Result, got []assignment) error {
	cpStart := make(map[*workload.Task]int64, len(bm.tasks))
	for _, mt := range bm.tasks {
		cpStart[mt.task] = res.Starts[mt.iv.ID()]
	}
	// Load is kept per unit slot (combined, capacity 1) or per resource
	// (direct, capacity its slot count) in each pool.
	type unit struct {
		typ workload.TaskType
		i   int
	}
	spans := map[unit][]busySpan{}
	capacity := func(u unit) int64 {
		if in.mode == ModeCombined {
			return 1
		}
		if u.typ == workload.MapTask {
			return in.cluster.MapSlots
		}
		return in.cluster.ReduceSlots
	}
	for _, w := range in.work {
		for _, frozen := range [2][]frozenTask{w.frozenMaps, w.frozenReds} {
			for _, f := range frozen {
				u := unit{f.task.Type, f.res}
				if in.mode == ModeCombined {
					u.i = in.slots[f.task]
				}
				spans[u] = append(spans[u], busySpan{f.start, f.start + f.exec})
			}
		}
	}
	for _, a := range got {
		if a.start != cpStart[a.task] {
			return fmt.Errorf("%s placed at %d, CP start %d", a.task.ID, a.start, cpStart[a.task])
		}
		if a.res < 0 || a.res >= in.cluster.NumResources || (in.down != nil && in.down[a.res]) {
			return fmt.Errorf("%s placed on resource %d, down %v", a.task.ID, a.res, in.down)
		}
		u := unit{a.task.Type, a.res}
		dur := sim.ScaledExec(a.task.Exec, in.cluster.SpeedOf(a.res))
		if in.mode == ModeCombined {
			per := in.cluster.MapSlots
			if a.task.Type == workload.ReduceTask {
				per = in.cluster.ReduceSlots
			}
			if a.res != a.slot/int(per) {
				return fmt.Errorf("%s placed on resource %d, its unit slot %d is on resource %d",
					a.task.ID, a.res, a.slot, a.slot/int(per))
			}
			u.i, dur = a.slot, a.task.Exec
		}
		spans[u] = append(spans[u], busySpan{a.start, a.start + dur})
	}
	for u, s := range spans {
		if load := maxLoad(s); load > capacity(u) {
			return fmt.Errorf("%d tasks at once on %v unit %d, capacity %d", load, u.typ, u.i, capacity(u))
		}
	}
	return nil
}

// maxLoad returns the largest number of spans that overlap at one instant.
func maxLoad(spans []busySpan) int64 {
	type edge struct{ at, d int64 }
	var edges []edge
	for _, s := range spans {
		edges = append(edges, edge{s.from, 1}, edge{s.to, -1})
	}
	// Ends sort before starts at the same instant: spans are half-open.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return edges[a].d < edges[b].d
	})
	var load, peak int64
	for _, e := range edges {
		load += e.d
		peak = max(peak, load)
	}
	return peak
}

// placements must read a solution back exactly as the three hand-written
// read-backs it replaced did: the same (task, resource, slot, start)
// sequence on every formulation. Over the real solver's schedules, with
// running tasks, outages and task-level precedence, every placement is
// also exact (see checkExact).
func TestPlacementsMatchOracle(t *testing.T) {
	uniform := sim.Cluster{NumResources: 3, MapSlots: 2, ReduceSlots: 2}
	hetero, err := TwoClassSpec(4, 2, 2, 2).Cluster()
	if err != nil {
		t.Fatal(err)
	}
	hetero.MemCapacity = 6
	kinds := []struct {
		name                        string
		cluster                     sim.Cluster
		mode                        SolveMode
		frozen, taskPrec, mem, down bool
	}{
		{"combined-frozen", uniform, ModeCombined, true, false, false, false},
		{"combined-precedence", uniform, ModeCombined, false, true, false, false},
		{"combined-outage", uniform, ModeCombined, true, true, false, true},
		{"direct-frozen", uniform, ModeDirect, true, false, false, false},
		{"direct-precedence", uniform, ModeDirect, false, true, false, false},
		{"direct-outage", uniform, ModeDirect, true, true, false, true},
		{"hetero-memory", hetero, Config{}.formulation(hetero), true, true, true, true},
	}
	for ki, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			rng := stats.NewStream(91, uint64(ki))
			for n := 0; n < 30; n++ {
				in := randomReadbackInstance(rng.Derive(uint64(n)), k.cluster, k.mode, k.frozen, k.taskPrec, k.mem, k.down)
				bm, err := new(round).buildModel(in.mode, in.now, in.cluster, in.work, in.down)
				if err != nil {
					t.Fatalf("instance %d: %v", n, err)
				}
				res := cp.NewSolver(bm.model, cp.Params{NodeLimit: 2000}).Solve()
				if !res.HasSolution() {
					t.Fatalf("instance %d: no solution (%v)", n, res.Status)
				}
				got, err := bm.placements(&res, in.matchmaker(t))
				if err != nil {
					t.Fatalf("instance %d: %v", n, err)
				}
				if err := checkExact(in, bm, &res, got); err != nil {
					t.Fatalf("instance %d: %v", n, err)
				}
				want := oraclePlacements(bm, &res, in.oracle(in.slots))
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
