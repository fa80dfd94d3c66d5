package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"mrcprm/internal/cp"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// Assignment is one task's place in a batch schedule.
type Assignment struct {
	Task     *workload.Task
	Job      *workload.Job
	Resource int
	Start    int64 // ms
}

// End returns the task's completion time.
func (a Assignment) End() int64 { return a.Start + a.Task.Exec }

// Schedule is the result of a closed-system batch solve: the scenario of
// the authors' preliminary work, where a fixed set of jobs is known ahead
// of time and mapped in one shot.
type Schedule struct {
	Assignments []Assignment
	// LateJobs lists the IDs of jobs whose schedule misses their deadline.
	LateJobs []int
	// Objective is the CP objective value (number of late jobs).
	Objective int
	// Optimal reports whether the solver proved the objective optimal
	// within its search space.
	Optimal   bool
	SolveTime time.Duration
	Nodes     int64
	// Search carries the solver's detailed search statistics.
	Search cp.SearchStats
}

// SolveBatch maps and schedules a fixed batch of jobs on the cluster,
// minimizing the number of late jobs. Arrival times are ignored; earliest
// start times and deadlines are honored. The returned assignments are
// sorted by start time.
func SolveBatch(cluster sim.Cluster, jobs []*workload.Job, cfg Config) (*Schedule, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	work := make([]*jobWork, 0, len(jobs))
	for _, j := range jobs {
		if len(j.MapTasks) == 0 {
			return nil, fmt.Errorf("core: job %d has no map tasks", j.ID)
		}
		work = append(work, &jobWork{
			job:         j,
			pendingMaps: j.MapTasks,
			pendingReds: j.ReduceTasks,
		})
	}
	bm, err := buildModel(cfg.Mode, 0, cluster, work, nil)
	if err != nil {
		return nil, err
	}
	res := cp.NewSolver(bm.model, cp.Params{
		TimeLimit: cfg.SolveTimeLimit,
		NodeLimit: cfg.NodeLimit,
		Ordering:  cfg.Ordering,
	}).Solve()
	if !res.HasSolution() {
		return nil, fmt.Errorf("core: batch solve failed with status %v", res.Status)
	}
	if err := bm.model.VerifySolution(&res); err != nil {
		return nil, err
	}

	sched := &Schedule{
		Objective: res.Objective,
		Optimal:   res.Status == cp.StatusOptimal,
		SolveTime: res.SolveTime,
		Nodes:     res.Nodes,
		Search:    res.Search,
	}
	jobByID := make(map[int]*workload.Job, len(jobs))
	for _, j := range jobs {
		jobByID[j.ID] = j
	}

	switch cfg.Mode {
	case ModeCombined:
		var st Stats
		mk := newMatchmaker(cluster.NumResources, cluster.MapSlots, cluster.ReduceSlots, &st)
		type item struct {
			task  *workload.Task
			start int64
		}
		var items []item
		for t, iv := range bm.byTask {
			items = append(items, item{t, res.Starts[iv.ID()]})
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
			a := mk.place(it.task, it.start)
			sched.Assignments = append(sched.Assignments, Assignment{
				Task: it.task, Job: jobByID[it.task.JobID], Resource: a.res, Start: a.start,
			})
		}
	case ModeDirect:
		for t, iv := range bm.byTask {
			sched.Assignments = append(sched.Assignments, Assignment{
				Task: t, Job: jobByID[t.JobID], Resource: res.Res[iv.ID()], Start: res.Starts[iv.ID()],
			})
		}
	}
	sort.Slice(sched.Assignments, func(a, b int) bool {
		if sched.Assignments[a].Start != sched.Assignments[b].Start {
			return sched.Assignments[a].Start < sched.Assignments[b].Start
		}
		return sched.Assignments[a].Task.ID < sched.Assignments[b].Task.ID
	})

	// Recompute lateness from the final (possibly matchmaking-adjusted)
	// assignments rather than trusting the CP objective.
	complete := map[int]int64{}
	for _, a := range sched.Assignments {
		if a.End() > complete[a.Task.JobID] {
			complete[a.Task.JobID] = a.End()
		}
	}
	for _, j := range jobs {
		if complete[j.ID] > j.Deadline {
			sched.LateJobs = append(sched.LateJobs, j.ID)
		}
	}
	sort.Ints(sched.LateJobs)
	return sched, nil
}

// WriteBatchModelOPL builds the CP model a batch solve would use and
// renders it in OPL-like syntax (the notation of the paper's Section IV)
// for inspection, without solving it.
func WriteBatchModelOPL(cluster sim.Cluster, jobs []*workload.Job, cfg Config, w io.Writer) error {
	if err := cluster.Validate(); err != nil {
		return err
	}
	work := make([]*jobWork, 0, len(jobs))
	for _, j := range jobs {
		work = append(work, &jobWork{job: j, pendingMaps: j.MapTasks, pendingReds: j.ReduceTasks})
	}
	bm, err := buildModel(cfg.Mode, 0, cluster, work, nil)
	if err != nil {
		return err
	}
	return bm.model.WriteOPL(w)
}

// Validate checks a schedule against the problem rules: capacities,
// earliest starts, and reduce-after-map precedence. Useful for tests and
// for callers that post-process schedules.
func (s *Schedule) Validate(cluster sim.Cluster) error {
	type ev struct {
		at    int64
		delta int64
	}
	mapEvs := make(map[int][]ev)
	redEvs := make(map[int][]ev)
	mapEnd := map[int]int64{}
	for _, a := range s.Assignments {
		if a.Start < a.Job.EarliestStart {
			return fmt.Errorf("core: task %s starts before its job's earliest start", a.Task.ID)
		}
		if a.Task.Type == workload.MapTask {
			mapEvs[a.Resource] = append(mapEvs[a.Resource],
				ev{a.Start, a.Task.Req}, ev{a.End(), -a.Task.Req})
			if a.End() > mapEnd[a.Task.JobID] {
				mapEnd[a.Task.JobID] = a.End()
			}
		} else {
			redEvs[a.Resource] = append(redEvs[a.Resource],
				ev{a.Start, a.Task.Req}, ev{a.End(), -a.Task.Req})
		}
	}
	for _, a := range s.Assignments {
		if a.Task.Type == workload.ReduceTask && a.Start < mapEnd[a.Task.JobID] {
			return fmt.Errorf("core: reduce task %s starts before its job's maps end", a.Task.ID)
		}
	}
	check := func(evsByRes map[int][]ev, capacity int64, kind string) error {
		for r, evs := range evsByRes {
			sort.Slice(evs, func(i, j int) bool {
				if evs[i].at != evs[j].at {
					return evs[i].at < evs[j].at
				}
				return evs[i].delta < evs[j].delta
			})
			var load int64
			for _, e := range evs {
				load += e.delta
				if load > capacity {
					return fmt.Errorf("core: %s capacity of resource %d exceeded", kind, r)
				}
			}
		}
		return nil
	}
	if err := check(mapEvs, cluster.MapSlots, "map"); err != nil {
		return err
	}
	return check(redEvs, cluster.ReduceSlots, "reduce")
}
