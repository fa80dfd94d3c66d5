// Package workflow generalizes the MapReduce model to workflows with
// user-specified precedence relationships — the extension the paper's
// conclusions single out as future work. A workflow is a DAG of tasks;
// each task occupies one slot of a pool (map-class or reduce-class) on the
// simulated cluster, and the workflow carries the same SLA as a MapReduce
// job: earliest start time, per-task execution times, and an end-to-end
// deadline.
//
// Solve maps and schedules a batch of workflows through core.SolveBatch —
// the model builder, solver and read-back MRCP-RM itself uses — by turning
// each workflow into a workload.Job with task-level precedence; ToJob makes
// the same conversion available to the open-system manager.
package workflow

import (
	"fmt"

	"mrcprm/internal/workload"
)

// Task is one node of a workflow DAG.
type Task struct {
	ID   string
	Exec int64 // execution time, ms
	Req  int64 // slot demand (1 for ordinary tasks)
	// Pool selects which slot class of the cluster the task occupies:
	// workload.MapTask for map-class slots, workload.ReduceTask for
	// reduce-class slots.
	Pool workload.TaskType

	wf    *Workflow
	index int
	preds []*Task
	succs []*Task
}

// Preds returns the task's direct predecessors.
func (t *Task) Preds() []*Task { return t.preds }

// Workflow is a DAG of tasks with an end-to-end SLA.
type Workflow struct {
	ID            int
	EarliestStart int64
	Deadline      int64
	Tasks         []*Task
}

// New creates an empty workflow.
func New(id int, earliestStart, deadline int64) *Workflow {
	return &Workflow{ID: id, EarliestStart: earliestStart, Deadline: deadline}
}

// AddTask appends a task to the workflow.
func (w *Workflow) AddTask(id string, pool workload.TaskType, execMS int64) *Task {
	t := &Task{ID: id, Exec: execMS, Req: 1, Pool: pool, wf: w, index: len(w.Tasks)}
	w.Tasks = append(w.Tasks, t)
	return t
}

// AddDep declares that succ may start only after pred completes.
func (w *Workflow) AddDep(pred, succ *Task) error {
	if pred.wf != w || succ.wf != w {
		return fmt.Errorf("workflow: dependency across workflows (%s -> %s)", pred.ID, succ.ID)
	}
	if pred == succ {
		return fmt.Errorf("workflow: task %s cannot depend on itself", pred.ID)
	}
	succ.preds = append(succ.preds, pred)
	pred.succs = append(pred.succs, succ)
	return nil
}

// Chain is a convenience constructor: task i depends on task i-1.
func (w *Workflow) Chain(tasks ...*Task) error {
	for i := 1; i < len(tasks); i++ {
		if err := w.AddDep(tasks[i-1], tasks[i]); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the workflow: at least one task, positive execution
// times, unique task IDs, and an acyclic dependency graph.
func (w *Workflow) Validate() error {
	if len(w.Tasks) == 0 {
		return fmt.Errorf("workflow %d has no tasks", w.ID)
	}
	if w.Deadline < w.EarliestStart {
		return fmt.Errorf("workflow %d deadline %d before earliest start %d",
			w.ID, w.Deadline, w.EarliestStart)
	}
	ids := make(map[string]bool, len(w.Tasks))
	for _, t := range w.Tasks {
		if t.Exec <= 0 {
			return fmt.Errorf("workflow %d task %s has non-positive execution time", w.ID, t.ID)
		}
		if t.Req <= 0 {
			return fmt.Errorf("workflow %d task %s has non-positive demand", w.ID, t.ID)
		}
		if ids[t.ID] {
			return fmt.Errorf("workflow %d has duplicate task id %q", w.ID, t.ID)
		}
		ids[t.ID] = true
	}
	if _, err := w.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns the tasks in a topological order, or an error if the
// graph has a cycle.
func (w *Workflow) TopoOrder() ([]*Task, error) {
	indeg := make([]int, len(w.Tasks))
	for _, t := range w.Tasks {
		indeg[t.index] = len(t.preds)
	}
	var queue []*Task
	for _, t := range w.Tasks {
		if indeg[t.index] == 0 {
			queue = append(queue, t)
		}
	}
	var order []*Task
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		order = append(order, t)
		for _, s := range t.succs {
			indeg[s.index]--
			if indeg[s.index] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(w.Tasks) {
		return nil, fmt.Errorf("workflow %d has a dependency cycle", w.ID)
	}
	return order, nil
}

// CriticalPath returns the length (ms) of the longest dependency chain — a
// lower bound on the workflow's makespan regardless of cluster size.
func (w *Workflow) CriticalPath() int64 {
	order, err := w.TopoOrder()
	if err != nil {
		return 0
	}
	finish := make([]int64, len(w.Tasks))
	var best int64
	for _, t := range order {
		var start int64
		for _, p := range t.preds {
			if finish[p.index] > start {
				start = finish[p.index]
			}
		}
		finish[t.index] = start + t.Exec
		if finish[t.index] > best {
			best = finish[t.index]
		}
	}
	return best
}

// TotalWork returns the sum of task execution times.
func (w *Workflow) TotalWork() int64 {
	var sum int64
	for _, t := range w.Tasks {
		sum += t.Exec
	}
	return sum
}

// FromMapReduceJob converts a classic two-phase MapReduce job into the
// equivalent workflow: every reduce task depends on every map task.
func FromMapReduceJob(j *workload.Job) *Workflow {
	w := New(j.ID, j.EarliestStart, j.Deadline)
	var maps []*Task
	for _, mt := range j.MapTasks {
		maps = append(maps, w.AddTask(mt.ID, workload.MapTask, mt.Exec))
	}
	for _, rt := range j.ReduceTasks {
		r := w.AddTask(rt.ID, workload.ReduceTask, rt.Exec)
		for _, mt := range maps {
			// Dependencies within one workflow never fail here.
			if err := w.AddDep(mt, r); err != nil {
				panic(err)
			}
		}
	}
	return w
}

// job is the conversion ToJob and Solve share: the workflow as a
// workload.Job with task-level precedence arriving at arrival, and its
// tasks in w.Tasks order (the job regroups them by pool).
func (w *Workflow) job(arrival int64) (*workload.Job, []*workload.Task) {
	j := &workload.Job{
		ID:             w.ID,
		Arrival:        arrival,
		EarliestStart:  w.EarliestStart,
		Deadline:       w.Deadline,
		TaskPrecedence: true,
	}
	if j.EarliestStart < arrival {
		j.EarliestStart = arrival
	}
	tasks := make([]*workload.Task, len(w.Tasks))
	for i, t := range w.Tasks {
		wt := &workload.Task{ID: t.ID, JobID: w.ID, Type: t.Pool, Exec: t.Exec, Req: t.Req}
		tasks[i] = wt
		if t.Pool == workload.MapTask {
			j.MapTasks = append(j.MapTasks, wt)
		} else {
			j.ReduceTasks = append(j.ReduceTasks, wt)
		}
	}
	for i, t := range w.Tasks {
		for _, p := range t.preds {
			tasks[i].Preds = append(tasks[i].Preds, tasks[p.index])
		}
	}
	return j, tasks
}

// ToJob converts the workflow into a workload.Job with task-level
// precedence, which the open-system machinery (simulator + MRCP-RM)
// schedules directly: workflows can then arrive as a stream like any other
// job. arrival is the job's arrival time (>= 0, <= the workflow's earliest
// start unless the workflow starts immediately).
func (w *Workflow) ToJob(arrival int64) (*workload.Job, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	j, _ := w.job(arrival)
	if len(j.MapTasks) == 0 {
		// workload.Job.Validate requires at least one map-pool task; a
		// reduce-only workflow cannot ride on the MapReduce job carrier.
		return nil, fmt.Errorf("workflow %d has no map-pool tasks; the open-system carrier requires one", w.ID)
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}
