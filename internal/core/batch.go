package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
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
	// Dur is the duration the task was planned with: its execution time
	// scaled by the speed of Resource (sim.ScaledExec).
	Dur int64 // ms
}

// End returns the task's completion time.
func (a Assignment) End() int64 { return a.Start + a.Dur }

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

// spareRound is the round batch solves build their models in, so a batch
// solve, like a reschedule, resets the memory an earlier one grew instead of
// allocating a model. SolveBatch takes the spare, or a new round when
// another call holds it, and puts its round back when the slot is empty:
// concurrent calls never share one. The spare lives as long as the process
// and keeps the memory of the largest batch solved in it; it drops its last
// batch's jobs and tasks when put back (round.forget), and the Schedule a
// call returns shares no memory with it.
var spareRound struct {
	sync.Mutex
	rd *round
}

// SolveBatch maps and schedules a fixed batch of jobs on the cluster,
// minimizing the number of late jobs. Arrival times are ignored; earliest
// start times and deadlines are honored. The returned assignments are
// sorted by start time.
//
// The model is built in a round kept for the life of the process, so
// after a call the memory of the largest batch solved so far stays
// allocated (no job or task of the caller's stays reachable through it).
func SolveBatch(cluster sim.Cluster, jobs []*workload.Job, cfg Config) (*Schedule, error) {
	spareRound.Lock()
	rd := spareRound.rd
	spareRound.rd = nil
	spareRound.Unlock()
	if rd == nil {
		rd = new(round)
	}
	defer func() {
		rd.forget()
		spareRound.Lock()
		if spareRound.rd == nil {
			spareRound.rd = rd
		}
		spareRound.Unlock()
	}()
	return solveBatch(rd, cluster, jobs, cfg)
}

// solveBatch is SolveBatch in the given round.
func solveBatch(rd *round, cluster sim.Cluster, jobs []*workload.Job, cfg Config) (*Schedule, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
	}
	// The closed-system model: every task of every job pending at time 0 on
	// a fully available cluster, in the formulation the cluster calls for.
	for len(rd.jobs) < len(jobs) {
		rd.jobs = append(rd.jobs, new(jobWork))
	}
	work := rd.jobs[:len(jobs)]
	for i, j := range jobs {
		*work[i] = jobWork{job: j, pendingMaps: j.MapTasks, pendingReds: j.ReduceTasks}
	}
	bm, err := rd.buildModel(cfg.formulation(cluster), 0, cluster, work, nil)
	if err != nil {
		return nil, err
	}
	res := cp.NewSolver(bm.model, cp.Params{
		TimeLimit: cfg.SolveTimeLimit,
		NodeLimit: cfg.NodeLimit,
	}).Solve()
	if !res.HasSolution() {
		return nil, fmt.Errorf("core: batch solve failed with status %v", res.Status)
	}
	if err := bm.model.VerifySolution(&res); err != nil {
		return nil, err
	}

	var mk *matchmaker
	if bm.mode == ModeCombined {
		mk = &rd.mk
		mk.reset(cluster.NumResources, cluster.MapSlots, cluster.ReduceSlots)
	}
	placed, err := bm.placements(&res, mk)
	if err != nil {
		return nil, err
	}
	sched := &Schedule{
		Assignments: make([]Assignment, len(placed)),
		Objective:   res.Objective,
		Optimal:     res.Status == cp.StatusOptimal,
		SolveTime:   res.SolveTime,
		Nodes:       res.Search.Nodes,
		Search:      res.Search,
	}
	for i, a := range placed {
		sched.Assignments[i] = Assignment{Task: a.task, Job: bm.tasks[a.id].job, Resource: a.res, Start: a.start,
			Dur: sim.ScaledExec(a.task.Exec, cluster.SpeedOf(a.res))}
	}
	slices.SortStableFunc(sched.Assignments, func(a, b Assignment) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return strings.Compare(a.Task.ID, b.Task.ID)
	})

	// Recompute lateness from the assignments' machine-scaled ends rather
	// than trusting the CP objective.
	complete := make(map[*workload.Job]int64, len(jobs))
	for _, a := range sched.Assignments {
		if a.End() > complete[a.Job] {
			complete[a.Job] = a.End()
		}
	}
	for _, j := range jobs {
		if complete[j] > j.Deadline {
			sched.LateJobs = append(sched.LateJobs, j.ID)
		}
	}
	sort.Ints(sched.LateJobs)
	return sched, nil
}

// Validate checks a schedule against the problem rules on the cluster's
// true machine-scaled durations: each assignment reports the duration its
// resource gives it, per-resource map and reduce slot capacities, memory
// capacity when the cluster has that dimension, earliest starts, and
// precedence — per Task.Preds for TaskPrecedence jobs, reduce-after-all-maps
// otherwise. Useful for tests and for callers that post-process schedules.
func (s *Schedule) Validate(cluster sim.Cluster) error {
	type ev struct {
		at    int64
		delta int64
	}
	// Per resource: map slots, reduce slots, memory.
	loads := make([][3][]ev, cluster.NumResources)
	caps := [3]int64{cluster.MapSlots, cluster.ReduceSlots, cluster.MemCapacity}
	kinds := [3]string{"map", "reduce", "memory"}
	taskEnd := make(map[*workload.Task]int64, len(s.Assignments))
	mapEnd := map[*workload.Job]int64{}
	for _, a := range s.Assignments {
		if a.Resource < 0 || a.Resource >= cluster.NumResources {
			return fmt.Errorf("core: task %s placed on unknown resource %d", a.Task.ID, a.Resource)
		}
		if want := sim.ScaledExec(a.Task.Exec, cluster.SpeedOf(a.Resource)); a.Dur != want {
			return fmt.Errorf("core: task %s reports duration %d but runs %d on resource %d",
				a.Task.ID, a.Dur, want, a.Resource)
		}
		if a.Start < a.Job.EarliestStart {
			return fmt.Errorf("core: task %s starts before its job's earliest start", a.Task.ID)
		}
		taskEnd[a.Task] = a.End()
		pool := 0
		if a.Task.Type == workload.ReduceTask {
			pool = 1
		} else if a.End() > mapEnd[a.Job] {
			mapEnd[a.Job] = a.End()
		}
		l := &loads[a.Resource]
		l[pool] = append(l[pool], ev{a.Start, a.Task.Req}, ev{a.End(), -a.Task.Req})
		if cluster.MemCapacity > 0 && a.Task.Mem > 0 {
			l[2] = append(l[2], ev{a.Start, a.Task.Mem}, ev{a.End(), -a.Task.Mem})
		}
	}
	for _, a := range s.Assignments {
		if a.Job.TaskPrecedence {
			for _, p := range a.Task.Preds {
				if a.Start < taskEnd[p] {
					return fmt.Errorf("core: task %s starts before predecessor %s ends", a.Task.ID, p.ID)
				}
			}
		} else if a.Task.Type == workload.ReduceTask && a.Start < mapEnd[a.Job] {
			return fmt.Errorf("core: reduce task %s starts before its job's maps end", a.Task.ID)
		}
	}
	for r := range loads {
		for k, evs := range loads[r] {
			sort.Slice(evs, func(i, j int) bool {
				if evs[i].at != evs[j].at {
					return evs[i].at < evs[j].at
				}
				return evs[i].delta < evs[j].delta
			})
			var load int64
			for _, e := range evs {
				load += e.delta
				if load > caps[k] {
					return fmt.Errorf("core: %s capacity of resource %d exceeded", kinds[k], r)
				}
			}
		}
	}
	return nil
}
