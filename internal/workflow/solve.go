package workflow

import (
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// Assignment is one task's place in a solved workflow schedule.
type Assignment struct {
	Task     *Task
	Workflow *Workflow
	Resource int
	Start    int64
	// Dur is the duration the task was planned with: its execution time
	// scaled by the speed of Resource.
	Dur int64
}

// End returns the task's completion time.
func (a Assignment) End() int64 { return a.Start + a.Dur }

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
// number of workflows that miss their deadlines. Each workflow becomes a
// workload.Job with task-level precedence and the batch goes through
// core.SolveBatch, so workflows get the same model builder, solve limits,
// formulation choice (combined plus gap-based matchmaking on uniform
// clusters, direct on heterogeneous or memory-constrained ones) and
// read-back as MapReduce jobs.
func Solve(cluster sim.Cluster, wfs []*Workflow, cfg core.Config) (*Schedule, error) {
	jobs := make([]*workload.Job, len(wfs))
	back := make(map[*workload.Task]*Task)
	for i, w := range wfs {
		if err := w.Validate(); err != nil {
			return nil, err
		}
		j, tasks := w.job(0)
		jobs[i] = j
		for k, wt := range tasks {
			back[wt] = w.Tasks[k]
		}
	}
	bs, err := core.SolveBatch(cluster, jobs, cfg)
	if err != nil {
		return nil, err
	}
	sched := &Schedule{
		Assignments:   make([]Assignment, len(bs.Assignments)),
		LateWorkflows: bs.LateJobs,
		Objective:     bs.Objective,
		Optimal:       bs.Optimal,
		SolveTime:     bs.SolveTime,
		Nodes:         bs.Nodes,
	}
	for i, a := range bs.Assignments {
		t := back[a.Task]
		sched.Assignments[i] = Assignment{Task: t, Workflow: t.wf, Resource: a.Resource, Start: a.Start, Dur: a.Dur}
	}
	return sched, nil
}

// Validate checks the schedule against capacities, precedence, earliest
// start times and the cluster's true task durations: it is
// core.Schedule.Validate over the same conversion Solve uses.
func (s *Schedule) Validate(cluster sim.Cluster) error {
	type converted struct {
		job   *workload.Job
		tasks []*workload.Task
	}
	conv := make(map[*Workflow]converted)
	cs := core.Schedule{Assignments: make([]core.Assignment, len(s.Assignments))}
	for i, a := range s.Assignments {
		c, ok := conv[a.Workflow]
		if !ok {
			c.job, c.tasks = a.Workflow.job(0)
			conv[a.Workflow] = c
		}
		cs.Assignments[i] = core.Assignment{Task: c.tasks[a.Task.index], Job: c.job,
			Resource: a.Resource, Start: a.Start, Dur: a.Dur}
	}
	return cs.Validate(cluster)
}
