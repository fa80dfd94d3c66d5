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
// slots), choosing for each task the slot that leaves the smallest gap
// behind it. Unit slots are grouped into resources with the configured
// per-resource capacities. Tasks that have already started stay pinned on
// the unit slot they were given in an earlier round.
//
// The paper's two-phase scheme is a relaxation (see DESIGN.md): with
// pinned tasks pre-colored, a task occasionally fits the combined capacity
// profile but no single unit slot. When that happens the task slips to the
// earliest instant a slot can take it, and dependent reduce starts are
// pushed along; slips are counted in Stats and reflected in the metrics.

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

// earliestFitAfter returns the smallest start >= from such that a window of
// length dur is free.
func (s *slotTimeline) earliestFitAfter(from, dur int64) int64 {
	st := from
	i := sort.Search(len(s.busy), func(i int) bool { return s.busy[i].to > st })
	for ; i < len(s.busy); i++ {
		if s.busy[i].from >= st+dur {
			break
		}
		st = s.busy[i].to
	}
	return st
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
	start int64 // possibly slipped
}

// placements is the one reader of a CP solution: it turns res into the
// placement of every non-frozen model task, in install order. Combined
// models are matched onto unit slots by mk in start order (maps before
// reduces on ties, so same-job precedence survives slips; then task ID);
// direct models carry their resources in the solution and are read in task
// ID order, mk unused. Task IDs are unique per job only, so both sorts are
// stable and model order breaks the ties that remain.
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
		if a.task.Type != b.task.Type {
			if a.task.Type == workload.MapTask {
				return -1
			}
			return 1
		}
		return strings.Compare(a.task.ID, b.task.ID)
	})
	for i, a := range out {
		out[i] = mk.place(a.task, a.start, a.job.TaskPrecedence)
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
	stats     *Stats
	jobMapEnd map[int]int64 // per job: latest (possibly slipped) map end this round
	frozenEnd map[int]int64 // per job: latest frozen/running map end
	// taskEnd records per-task placed/pinned ends for jobs using
	// task-level precedence (the workflow generalization).
	taskEnd map[*workload.Task]int64
}

func newMatchmaker(numRes int, mapPerRes, redPerRes int64, stats *Stats) *matchmaker {
	mk := new(matchmaker)
	mk.reset(numRes, mapPerRes, redPerRes, stats)
	return mk
}

// reset makes mk the matchmaker newMatchmaker would return, keeping the
// memory of its slot timelines and maps.
func (mk *matchmaker) reset(numRes int, mapPerRes, redPerRes int64, stats *Stats) {
	mk.mapSlots = resetSlots(mk.mapSlots, int(int64(numRes)*mapPerRes))
	mk.redSlots = resetSlots(mk.redSlots, int(int64(numRes)*redPerRes))
	mk.mapPerRes, mk.redPerRes, mk.stats = mapPerRes, redPerRes, stats
	if mk.taskEnd == nil {
		mk.jobMapEnd = make(map[int]int64)
		mk.frozenEnd = make(map[int]int64)
		mk.taskEnd = make(map[*workload.Task]int64)
	}
	clear(mk.jobMapEnd)
	clear(mk.frozenEnd)
	clear(mk.taskEnd)
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
// exceed t.Exec).
func (mk *matchmaker) pin(t *workload.Task, slot int, start, exec int64) {
	tl := mk.timeline(t.Type, slot)
	tl.insert(start, start+exec)
	mk.taskEnd[t] = start + exec
	if t.Type == workload.MapTask {
		if end := start + exec; end > mk.frozenEnd[t.JobID] {
			mk.frozenEnd[t.JobID] = end
		}
	}
}

// blockResource marks every unit slot of a down resource busy from now on,
// so neither the best-gap pass nor the slip path can place work there.
func (mk *matchmaker) blockResource(res int, from int64) {
	const forever = int64(1) << 62
	for s := res * int(mk.mapPerRes); s < (res+1)*int(mk.mapPerRes); s++ {
		mk.mapSlots[s].insert(from, forever)
	}
	for s := res * int(mk.redPerRes); s < (res+1)*int(mk.redPerRes); s++ {
		mk.redSlots[s].insert(from, forever)
	}
}

func (mk *matchmaker) timeline(tt workload.TaskType, slot int) *slotTimeline {
	if tt == workload.MapTask {
		return &mk.mapSlots[slot]
	}
	return &mk.redSlots[slot]
}

// resourceOf converts a unit slot index to its owning resource.
func (mk *matchmaker) resourceOf(tt workload.TaskType, slot int) int {
	if tt == workload.MapTask {
		return int(int64(slot) / mk.mapPerRes)
	}
	return int(int64(slot) / mk.redPerRes)
}

// place maps one task (in non-decreasing start order across calls) onto a
// unit slot, preferring the best-gap slot at the task's assigned start and
// slipping forward only when no slot is free. taskPrec says the task's job
// uses task-level precedence (workload.Job.TaskPrecedence).
func (mk *matchmaker) place(t *workload.Task, start int64, taskPrec bool) assignment {
	if taskPrec {
		// Workflow jobs: wait for the possibly slipped ends of the
		// predecessors placed this round or pinned. Completed predecessors
		// are absent from taskEnd and ended at or before now <= start.
		for _, p := range t.Preds {
			if end := mk.taskEnd[p]; end > start {
				start = end
			}
		}
	} else if t.Type == workload.ReduceTask {
		// Classic jobs: reduces must not start before the job's (possibly
		// slipped) maps.
		if end := mk.jobEnd(t.JobID); end > start {
			start = end
		}
	}
	slots := mk.mapSlots
	if t.Type == workload.ReduceTask {
		slots = mk.redSlots
	}
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
	actual := start
	if best < 0 {
		// Relaxation edge case: slip to the earliest feasible instant.
		bestAt := int64(1<<63 - 1)
		for i := range slots {
			at := slots[i].earliestFitAfter(start, t.Exec)
			if at < bestAt {
				bestAt, best = at, i
			}
		}
		actual = bestAt
		mk.stats.Slips++
		mk.stats.SlipMS += actual - start
	}
	slots[best].insert(actual, actual+t.Exec)
	mk.taskEnd[t] = actual + t.Exec
	if t.Type == workload.MapTask {
		if end := actual + t.Exec; end > mk.jobMapEnd[t.JobID] {
			mk.jobMapEnd[t.JobID] = end
		}
	}
	return assignment{task: t, res: mk.resourceOf(t.Type, best), slot: best, start: actual}
}

// jobEnd returns the job's latest known map completion this round.
func (mk *matchmaker) jobEnd(jobID int) int64 {
	end := mk.frozenEnd[jobID]
	if e := mk.jobMapEnd[jobID]; e > end {
		end = e
	}
	return end
}
