package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mrcprm/internal/cp"
	"mrcprm/internal/workload"
)

// The Section V.D matchmaking algorithm: the combined-resource schedule is
// mapped onto unit-capacity slots (m * c^mp map slots and m * c^rd reduce
// slots), choosing for each task the free slot that leaves the smallest gap
// behind it. Unit slots are grouped into resources with the configured
// per-resource capacities. Tasks that have already started stay pinned on
// the unit slot they were given in an earlier round, and a down resource's
// slots are blocked from now on.
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

// slotTimeline is one unit-capacity slot's committed busy intervals,
// kept sorted by start.
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
	s.busy = append(s.busy, busySpan{})
	copy(s.busy[i+1:], s.busy[i:])
	s.busy[i] = busySpan{from, to}
}

// assignment is one task's place in the timetable being installed.
type assignment struct {
	task  *workload.Task
	job   *workload.Job
	res   int   // resource index for the simulator
	slot  int   // unit slot index (persisted for pinning after start); -1 in direct mode
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
			out = append(out, assignment{task: mt.task, job: mt.job, res: res.Res[id], slot: -1, start: res.Starts[id]})
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
		out[i] = placed
		out[i].job = a.job
	}
	return out, nil
}

// matchmaker runs one round of the two-phase mapping.
type matchmaker struct {
	mapSlots  []slotTimeline
	redSlots  []slotTimeline
	mapPerRes int64
	redPerRes int64
}

func newMatchmaker(numRes int, mapPerRes, redPerRes int64) *matchmaker {
	mk := new(matchmaker)
	mk.reset(numRes, mapPerRes, redPerRes)
	return mk
}

// reset makes mk the matchmaker newMatchmaker would return, keeping the
// memory of its slot timelines.
func (mk *matchmaker) reset(numRes int, mapPerRes, redPerRes int64) {
	mk.mapSlots = resetSlots(mk.mapSlots, int(int64(numRes)*mapPerRes))
	mk.redSlots = resetSlots(mk.redSlots, int(int64(numRes)*redPerRes))
	mk.mapPerRes, mk.redPerRes = mapPerRes, redPerRes
}

// resetSlots returns n empty slot timelines, reusing s and the busy lists
// of its slots.
func resetSlots(s []slotTimeline, n int) []slotTimeline {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]slotTimeline, n-cap(s))...)
	}
	s = s[:n]
	for i := range s {
		s[i].busy = s[i].busy[:0]
	}
	return s
}

// pin commits an already-started task to its remembered unit slot. exec is
// the attempt's effective execution time (straggler slowdowns make it
// exceed t.Exec), the duration the model gave its frozen interval.
func (mk *matchmaker) pin(t *workload.Task, slot int, start, exec int64) {
	slots, _ := mk.pool(t.Type)
	slots[slot].insert(start, start+exec)
}

// blockResource marks every unit slot of a down resource busy from now on,
// so no task is placed there.
func (mk *matchmaker) blockResource(res int, from int64) {
	const forever = int64(1) << 62
	for s := res * int(mk.mapPerRes); s < (res+1)*int(mk.mapPerRes); s++ {
		mk.mapSlots[s].insert(from, forever)
	}
	for s := res * int(mk.redPerRes); s < (res+1)*int(mk.redPerRes); s++ {
		mk.redSlots[s].insert(from, forever)
	}
}

// pool returns a task type's unit slots and how many of them each
// resource holds: unit slot s belongs to resource s / perRes.
func (mk *matchmaker) pool(tt workload.TaskType) (slots []slotTimeline, perRes int64) {
	if tt == workload.MapTask {
		return mk.mapSlots, mk.mapPerRes
	}
	return mk.redSlots, mk.redPerRes
}

// place maps one task (in non-decreasing start order across calls) onto the
// free unit slot with the smallest gap before start, at start. Some slot is
// always free (see the argument above); finding none is an invariant error.
func (mk *matchmaker) place(t *workload.Task, start int64) (assignment, error) {
	slots, perRes := mk.pool(t.Type)
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
