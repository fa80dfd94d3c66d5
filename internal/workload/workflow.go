package workload

import "fmt"

// Workflows are the paper's future-work generalization: a job whose tasks
// form a DAG through Task.Preds (TaskPrecedence set) instead of the
// reduce-after-all-maps rule, Task.Type only selecting the slot pool a task
// occupies. A workflow is a Job, so the batch solver, the simulator and
// MRCP-RM schedule it with no conversion; NewWorkflow and the builder
// methods below construct one.

// NewWorkflow returns an empty workflow job with the given SLA, arriving at
// time 0. Set Arrival (at most earliestStart) before streaming it into a
// simulation that should see it later.
func NewWorkflow(id int, earliestStart, deadline int64) *Job {
	return &Job{ID: id, EarliestStart: earliestStart, Deadline: deadline, TaskPrecedence: true}
}

// AddTask appends a unit-demand task to the job's map or reduce pool and
// returns it.
func (j *Job) AddTask(id string, pool TaskType, execMS int64) *Task {
	t := &Task{ID: id, JobID: j.ID, Type: pool, Exec: execMS, Req: 1}
	if pool == MapTask {
		j.MapTasks = append(j.MapTasks, t)
	} else {
		j.ReduceTasks = append(j.ReduceTasks, t)
	}
	return t
}

// AddDep declares that succ may start only after pred completes; both must
// be tasks of j.
func (j *Job) AddDep(pred, succ *Task) error {
	if pred.JobID != j.ID || succ.JobID != j.ID {
		return fmt.Errorf("workload: dependency %s -> %s leaves job %d", pred.ID, succ.ID, j.ID)
	}
	if pred == succ {
		return fmt.Errorf("workload: task %s cannot depend on itself", pred.ID)
	}
	succ.Preds = append(succ.Preds, pred)
	return nil
}

// Chain makes each task depend on the one before it.
func (j *Job) Chain(tasks ...*Task) error {
	for i := 1; i < len(tasks); i++ {
		if err := j.AddDep(tasks[i-1], tasks[i]); err != nil {
			return err
		}
	}
	return nil
}

// TopoOrder returns the job's tasks in an order that respects its
// precedence: map tasks then reduce tasks for a classic job, a topological
// order of Task.Preds for a TaskPrecedence job. It fails when a dependency
// leaves the job or closes a cycle.
func (j *Job) TopoOrder() ([]*Task, error) {
	tasks := j.Tasks()
	if !j.TaskPrecedence {
		return tasks, nil
	}
	index := make(map[*Task]int, len(tasks))
	for i, t := range tasks {
		index[t] = i
	}
	indeg := make([]int, len(tasks))
	succs := make([][]int, len(tasks))
	for i, t := range tasks {
		for _, p := range t.Preds {
			pi, ok := index[p]
			if !ok {
				return nil, fmt.Errorf("workload: job %d task %s depends on a task outside the job", j.ID, t.ID)
			}
			indeg[i]++
			succs[pi] = append(succs[pi], i)
		}
	}
	order := make([]*Task, 0, len(tasks))
	for i, d := range indeg {
		if d == 0 {
			order = append(order, tasks[i])
		}
	}
	// order doubles as the FIFO queue: tasks are appended once ready.
	for k := 0; k < len(order); k++ {
		for _, s := range succs[index[order[k]]] {
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, tasks[s])
			}
		}
	}
	if len(order) != len(tasks) {
		return nil, fmt.Errorf("workload: job %d has a dependency cycle", j.ID)
	}
	return order, nil
}

// CriticalPath returns the length (ms) of the job's longest chain of
// dependent tasks — the longest map plus the longest reduce for a classic
// job — a lower bound on its makespan however large the cluster. It is 0
// when the precedence is invalid.
func (j *Job) CriticalPath() int64 {
	order, err := j.TopoOrder()
	if err != nil {
		return 0
	}
	finish := make(map[*Task]int64, len(order))
	var mapEnd, best int64
	for _, t := range order {
		var start int64
		if j.TaskPrecedence {
			for _, p := range t.Preds {
				start = max(start, finish[p])
			}
		} else if t.Type == ReduceTask {
			start = mapEnd
		}
		end := start + t.Exec
		finish[t] = end
		if t.Type == MapTask {
			mapEnd = max(mapEnd, end)
		}
		best = max(best, end)
	}
	return best
}
