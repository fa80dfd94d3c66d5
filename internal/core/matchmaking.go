package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"mrcprm/internal/cp"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// The Section V.D matchmaking algorithm: the combined-resource schedule is
// mapped onto unit-capacity slots (m * c^mp map slots and m * c^rd reduce
// slots), choosing for each task the free slot that leaves the smallest gap
// behind it. Unit slots are grouped into resources with the configured
// per-resource capacities. Tasks that have already started are pinned on a
// unit slot of the resource they run on, and a down resource's slots are
// blocked from now on.
//
// The mapping is exact: every task gets a unit slot at its CP start.
//  1. Every pinned or blocked span contains now: it is a running task or a
//     down resource's block.
//  2. Tasks are placed in non-decreasing start order, all at or after now.
//  3. At a task's start t the busy slots hold running tasks and placed
//     tasks that run at t. The combined cumulative counts running work and
//     up slots only, so it bounds those plus the new task by the number of
//     up slots: some slot is idle at t.
//  4. Nothing on that slot starts after t, by 1 and 2, so it stays free
//     for the task's whole duration.
// A task that finds no free slot is therefore an invariant violation, and
// place reports it as an error. The argument needs one packing dimension;
// a second one (memory) goes to the direct formulation (see DESIGN.md).
//
// By 1 and 2, every span on a slot starts at or before the task being
// placed, so a slot is all its free time: the end of its last span (0 for
// an empty slot, forever for a blocked one). The task fits where the free
// time is at or before its start, the gap it leaves is start minus the free
// time, and place takes the largest free time not past the start, the
// lowest slot on ties. Which slot of its resource a running task is pinned
// on does not matter: place's choice of resource depends only on each
// resource's free times, ties go to the lowest slot and a resource's slots
// are consecutive, so pinRound pins each running task on the first unpinned
// slot of its resource and no round remembers slots for the next.

// forever is a blocked slot's free time.
const forever = int64(1) << 62

// assignment is one task's place in the timetable being installed.
type assignment struct {
	task  *workload.Task
	id    int   // the task's model index: builtModel.tasks[id]
	res   int   // resource index for the simulator
	slot  int   // unit slot index; -1 in direct mode
	start int64 // the CP start
}

// placements is the one reader of a CP solution: it turns res into the
// placement of every non-frozen model task, in install order. Combined
// models are matched onto unit slots by mk in start order, then task ID;
// direct models carry their resources in the solution and are read in task
// ID order, mk unused. Task IDs are unique per job only, so both sorts are
// stable and model order breaks the ties that remain. Maps and reduces
// fill separate slot pools, so how their ties interleave orders only the
// installs.
func (bm *builtModel) placements(res *cp.Result, mk *matchmaker) ([]assignment, error) {
	out := reserve(bm.placed, len(bm.tasks))
	for _, mt := range bm.tasks {
		if !mt.frozen {
			id := mt.iv.ID()
			out = append(out, assignment{task: mt.task, id: id, res: res.Res[id], slot: -1, start: res.Starts[id]})
		}
	}
	bm.placed = out
	if bm.mode == ModeDirect {
		slices.SortStableFunc(out, func(a, b assignment) int { return strings.Compare(a.task.ID, b.task.ID) })
		for _, a := range out {
			if a.res < 0 {
				return nil, fmt.Errorf("core: task %s has no resource in direct solution", a.task.ID)
			}
		}
		return out, nil
	}
	slices.SortStableFunc(out, func(a, b assignment) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return strings.Compare(a.task.ID, b.task.ID)
	})
	for i, a := range out {
		placed, err := mk.place(a.task, a.start)
		if err != nil {
			return nil, err
		}
		out[i].res, out[i].slot = placed.res, placed.slot
	}
	return out, nil
}

// matchmaker runs one round of the two-phase mapping. mapFree[s] and
// redFree[s] are the free times of unit slot s of each pool; unit slot s
// belongs to resource s / perRes.
type matchmaker struct {
	mapFree   []int64
	redFree   []int64
	mapPerRes int64
	redPerRes int64
}

// reset sizes mk for numRes resources of the given slot counts, every slot
// empty, keeping the memory of its free-time arrays.
func (mk *matchmaker) reset(numRes int, mapPerRes, redPerRes int64) {
	mk.mapFree = cleared(mk.mapFree, int(int64(numRes)*mapPerRes))
	mk.redFree = cleared(mk.redFree, int(int64(numRes)*redPerRes))
	mk.mapPerRes, mk.redPerRes = mapPerRes, redPerRes
}

// cleared returns s resized to n zeros, reusing its backing array.
func cleared(s []int64, n int) []int64 {
	s = reserve(s, n)[:n]
	clear(s)
	return s
}

// pin commits an already-started task to the first unpinned unit slot of
// the resource it runs on. exec is the attempt's effective execution time
// (straggler slowdowns make it exceed t.Exec), the duration the model gave
// its frozen interval; a running task ends after now, so a pinned slot's
// free time is positive. A resource with no unpinned slot left — more
// running tasks of a type than it has slots, or a running task on a
// blocked resource — is an invariant error.
func (mk *matchmaker) pin(t *workload.Task, res int, start, exec int64) error {
	free, perRes := mk.pool(t.Type)
	for s := res * int(perRes); s < (res+1)*int(perRes); s++ {
		if free[s] == 0 {
			free[s] = start + exec
			return nil
		}
	}
	return fmt.Errorf("core: started task %s finds no unpinned unit slot on resource %d", t.ID, res)
}

// pinRound resets mk to a matchmaker over the planning cluster with every
// down resource blocked and every running task of work pinned on a unit
// slot of its resource.
func (mk *matchmaker) pinRound(cluster sim.Cluster, work []*jobWork, down []bool) error {
	mk.reset(cluster.NumResources, cluster.MapSlots, cluster.ReduceSlots)
	for r, d := range down {
		if d {
			mk.blockResource(r)
		}
	}
	for _, w := range work {
		for _, frozen := range [2][]frozenTask{w.frozenMaps, w.frozenReds} {
			for _, f := range frozen {
				if err := mk.pin(f.task, f.res, f.start, f.exec); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// blockResource marks every unit slot of a down resource busy for good, so
// no task is placed there.
func (mk *matchmaker) blockResource(res int) {
	for _, tt := range [2]workload.TaskType{workload.MapTask, workload.ReduceTask} {
		free, perRes := mk.pool(tt)
		for s := res * int(perRes); s < (res+1)*int(perRes); s++ {
			free[s] = forever
		}
	}
}

// pool returns a task type's unit-slot free times and how many slots each
// resource holds.
func (mk *matchmaker) pool(tt workload.TaskType) (free []int64, perRes int64) {
	if tt == workload.MapTask {
		return mk.mapFree, mk.mapPerRes
	}
	return mk.redFree, mk.redPerRes
}

// place maps one task (in non-decreasing start order across calls) onto the
// free unit slot with the smallest gap before start, at start: the slot
// with the largest free time at or before start, the lowest on ties. Some
// slot is always free (see the argument above); finding none is an
// invariant error.
func (mk *matchmaker) place(t *workload.Task, start int64) (assignment, error) {
	free, perRes := mk.pool(t.Type)
	best, bestFree := -1, int64(-1) // free times are never negative
	for i, f := range free {
		if f <= start && f > bestFree {
			best, bestFree = i, f
			if f == start {
				break // no gap: nothing later can beat it
			}
		}
	}
	if best < 0 {
		return assignment{}, fmt.Errorf("core: task %s has no free unit slot at %d", t.ID, start)
	}
	free[best] = start + t.Exec
	return assignment{task: t, res: best / int(perRes), slot: best, start: start}, nil
}
