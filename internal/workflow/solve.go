package workflow

import (
	"fmt"
	"sort"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/cp"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// Assignment is one task's place in a solved workflow schedule.
type Assignment struct {
	Task     *Task
	Workflow *Workflow
	Resource int
	Start    int64
}

// End returns the task's completion time.
func (a Assignment) End() int64 { return a.Start + a.Task.Exec }

// Schedule is a solved batch of workflows.
type Schedule struct {
	Assignments []Assignment
	// LateWorkflows lists IDs of workflows whose sinks finish after their
	// deadlines.
	LateWorkflows []int
	Objective     int
	Optimal       bool
	SolveTime     time.Duration
	Nodes         int64
}

// Solve maps and schedules the workflows on the cluster, minimizing the
// number of workflows that miss their deadlines. It uses the combined-
// resource formulation plus gap-based matchmaking (the Section V.D scheme
// generalized to arbitrary precedence DAGs).
func Solve(cluster sim.Cluster, wfs []*Workflow, cfg core.Config) (*Schedule, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	for _, w := range wfs {
		if err := w.Validate(); err != nil {
			return nil, err
		}
	}

	// Horizon: everything serial after the latest release.
	horizon := int64(1)
	var total, maxDur int64
	for _, w := range wfs {
		if w.EarliestStart >= horizon {
			horizon = w.EarliestStart + 1
		}
		for _, t := range w.Tasks {
			total += t.Exec
			if t.Exec > maxDur {
				maxDur = t.Exec
			}
		}
	}
	horizon += total + maxDur + 1

	m := cp.NewModel(horizon)
	type taskIv struct {
		task *Task
		wf   *Workflow
		iv   *cp.Interval
	}
	var items []taskIv
	ivOf := make(map[*Task]*cp.Interval)
	var mapPool, redPool []*cp.Interval
	var lates []*cp.Bool

	for _, w := range wfs {
		for _, t := range w.Tasks {
			iv := m.NewInterval(t.ID, t.Exec)
			iv.Demand = t.Req
			iv.Due = w.Deadline
			iv.JobKey = w.ID
			m.SetStartBounds(iv, w.EarliestStart, horizon-t.Exec)
			ivOf[t] = iv
			items = append(items, taskIv{task: t, wf: w, iv: iv})
			if t.Pool == workload.MapTask {
				mapPool = append(mapPool, iv)
			} else {
				redPool = append(redPool, iv)
			}
		}
		// Precedence: group predecessors per successor (Constraint 3
		// generalized to arbitrary edges).
		for _, t := range w.Tasks {
			if len(t.preds) == 0 {
				continue
			}
			preds := make([]*cp.Interval, 0, len(t.preds))
			for _, p := range t.preds {
				preds = append(preds, ivOf[p])
			}
			m.AddMaxEndBeforeStart(preds, ivOf[t])
		}
		// Lateness on the sinks.
		sinks := w.Sinks()
		sortTasksByIndex(sinks)
		terms := make([]*cp.Interval, 0, len(sinks))
		for _, t := range sinks {
			terms = append(terms, ivOf[t])
		}
		late := m.NewBool(fmt.Sprintf("late_wf%d", w.ID))
		m.AddLateness(terms, w.Deadline, late)
		lates = append(lates, late)
	}
	if len(mapPool) > 0 {
		m.AddCumulative("map-pool", -1, cluster.TotalMapSlots(), mapPool)
	}
	if len(redPool) > 0 {
		m.AddCumulative("reduce-pool", -1, cluster.TotalReduceSlots(), redPool)
	}
	m.Minimize(lates)

	res := cp.NewSolver(m, cp.Params{
		TimeLimit: cfg.SolveTimeLimit,
		NodeLimit: cfg.NodeLimit,
		Ordering:  cfg.Ordering,
	}).Solve()
	if !res.HasSolution() {
		return nil, fmt.Errorf("workflow: solve failed with status %v", res.Status)
	}
	if err := m.VerifySolution(&res); err != nil {
		return nil, err
	}

	sched := &Schedule{
		Objective: res.Objective,
		Optimal:   res.Status == cp.StatusOptimal,
		SolveTime: res.SolveTime,
		Nodes:     res.Nodes,
	}

	// Matchmaking onto unit slots, processed in start order; dependent
	// tasks take the max of their CP start and their (possibly slipped)
	// predecessors' placed ends.
	placer := newPlacer(cluster)
	sort.SliceStable(items, func(a, b int) bool {
		sa, sb := res.Starts[items[a].iv.ID()], res.Starts[items[b].iv.ID()]
		if sa != sb {
			return sa < sb
		}
		if items[a].wf.ID != items[b].wf.ID {
			return items[a].wf.ID < items[b].wf.ID
		}
		return items[a].task.index < items[b].task.index
	})
	placedEnd := make(map[*Task]int64)
	for _, it := range items {
		start := res.Starts[it.iv.ID()]
		for _, p := range it.task.preds {
			if e := placedEnd[p]; e > start {
				start = e
			}
		}
		resIdx, actual := placer.place(it.task.Pool, it.task.Exec, start)
		placedEnd[it.task] = actual + it.task.Exec
		sched.Assignments = append(sched.Assignments, Assignment{
			Task: it.task, Workflow: it.wf, Resource: resIdx, Start: actual,
		})
	}
	sort.SliceStable(sched.Assignments, func(a, b int) bool {
		if sched.Assignments[a].Start != sched.Assignments[b].Start {
			return sched.Assignments[a].Start < sched.Assignments[b].Start
		}
		return sched.Assignments[a].Task.ID < sched.Assignments[b].Task.ID
	})

	// Lateness from the final placements.
	complete := map[*Workflow]int64{}
	byTask := map[*Task]int64{}
	for _, a := range sched.Assignments {
		byTask[a.Task] = a.End()
		if a.End() > complete[a.Workflow] {
			complete[a.Workflow] = a.End()
		}
	}
	for _, w := range wfs {
		if complete[w] > w.Deadline {
			sched.LateWorkflows = append(sched.LateWorkflows, w.ID)
		}
	}
	sort.Ints(sched.LateWorkflows)
	return sched, nil
}

// placer assigns tasks to unit slots, best-gap first with slip fallback —
// the workflow-generalized version of core's matchmaker.
type placer struct {
	mapSlots  []slotTimeline
	redSlots  []slotTimeline
	mapPerRes int64
	redPerRes int64
}

type slotTimeline struct{ busy []span }

type span struct{ from, to int64 }

func newPlacer(c sim.Cluster) *placer {
	return &placer{
		mapSlots:  make([]slotTimeline, c.TotalMapSlots()),
		redSlots:  make([]slotTimeline, c.TotalReduceSlots()),
		mapPerRes: c.MapSlots,
		redPerRes: c.ReduceSlots,
	}
}

func (s *slotTimeline) fits(from, to int64) bool {
	i := sort.Search(len(s.busy), func(i int) bool { return s.busy[i].to > from })
	return i == len(s.busy) || s.busy[i].from >= to
}

func (s *slotTimeline) gapBefore(from int64) int64 {
	i := sort.Search(len(s.busy), func(i int) bool { return s.busy[i].to > from })
	if i == 0 {
		return from
	}
	return from - s.busy[i-1].to
}

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

func (s *slotTimeline) insert(from, to int64) {
	i := sort.Search(len(s.busy), func(i int) bool { return s.busy[i].from >= from })
	s.busy = append(s.busy, span{})
	copy(s.busy[i+1:], s.busy[i:])
	s.busy[i] = span{from, to}
}

// place commits the task to the best slot and returns (resource, start).
func (p *placer) place(pool workload.TaskType, dur, start int64) (int, int64) {
	slots := p.mapSlots
	perRes := p.mapPerRes
	if pool == workload.ReduceTask {
		slots = p.redSlots
		perRes = p.redPerRes
	}
	best := -1
	var bestGap int64
	for i := range slots {
		if !slots[i].fits(start, start+dur) {
			continue
		}
		gap := slots[i].gapBefore(start)
		if best < 0 || gap < bestGap {
			best, bestGap = i, gap
		}
	}
	actual := start
	if best < 0 {
		bestAt := int64(1<<63 - 1)
		for i := range slots {
			if at := slots[i].earliestFitAfter(start, dur); at < bestAt {
				bestAt, best = at, i
			}
		}
		actual = bestAt
	}
	slots[best].insert(actual, actual+dur)
	return int(int64(best) / perRes), actual
}

// ValidateSchedule checks a schedule against capacities, precedence, and
// earliest start times.
func (s *Schedule) Validate(cluster sim.Cluster) error {
	end := map[*Task]int64{}
	start := map[*Task]int64{}
	for _, a := range s.Assignments {
		start[a.Task] = a.Start
		end[a.Task] = a.End()
		if a.Start < a.Workflow.EarliestStart {
			return fmt.Errorf("workflow: task %s starts before its workflow's earliest start", a.Task.ID)
		}
	}
	type ev struct {
		at    int64
		delta int64
	}
	pools := map[workload.TaskType]map[int][]ev{
		workload.MapTask:    {},
		workload.ReduceTask: {},
	}
	for _, a := range s.Assignments {
		for _, p := range a.Task.preds {
			if start[a.Task] < end[p] {
				return fmt.Errorf("workflow: task %s starts before predecessor %s ends", a.Task.ID, p.ID)
			}
		}
		m := pools[a.Task.Pool]
		m[a.Resource] = append(m[a.Resource], ev{a.Start, a.Task.Req}, ev{a.End(), -a.Task.Req})
	}
	caps := map[workload.TaskType]int64{
		workload.MapTask:    cluster.MapSlots,
		workload.ReduceTask: cluster.ReduceSlots,
	}
	for pool, byRes := range pools {
		for r, evs := range byRes {
			sort.Slice(evs, func(i, j int) bool {
				if evs[i].at != evs[j].at {
					return evs[i].at < evs[j].at
				}
				return evs[i].delta < evs[j].delta
			})
			var load int64
			for _, e := range evs {
				load += e.delta
				if load > caps[pool] {
					return fmt.Errorf("workflow: %v capacity of resource %d exceeded", pool, r)
				}
			}
		}
	}
	return nil
}
