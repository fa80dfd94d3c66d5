// Package workload defines the MapReduce job model of the paper (Section
// III.A) and the two workload generators of the evaluation: the Table 3
// synthetic workload used for the factor-at-a-time experiments, and the
// Table 4 Facebook-trace-derived workload used for the comparison with
// MinEDF-WC.
//
// All times are int64 milliseconds. The generators are deterministic given
// a stats.Stream.
package workload

import (
	"fmt"
	"sort"
	"strconv"

	"mrcprm/internal/stats"
)

// TaskType distinguishes map and reduce tasks.
type TaskType int

const (
	// MapTask is the paper's type 0.
	MapTask TaskType = iota
	// ReduceTask is the paper's type 1.
	ReduceTask
)

func (t TaskType) String() string {
	if t == MapTask {
		return "map"
	}
	return "reduce"
}

// Task is one unit of work of a job: the paper's Task tuple
// <id, parent job, type, execution time, resource capacity requirement>.
type Task struct {
	ID    string
	JobID int
	Type  TaskType
	// Exec is the execution time e_t in milliseconds, inclusive of input
	// reading and map/reduce data exchange (Section III.A).
	Exec int64
	// Req is the resource capacity requirement q_t; the paper sets it to 1.
	Req int64
	// Mem is the task's memory demand in the cluster's memory units. It is
	// only enforced on clusters with a memory dimension (MemCapacity > 0);
	// zero means the task needs no accountable memory.
	Mem int64
	// Preds lists same-job tasks that must complete before this one may
	// start. Only meaningful when the owning job sets TaskPrecedence (the
	// generalized-workflow extension); nil under classic MapReduce
	// semantics, where the reduce-after-all-maps rule applies instead.
	Preds []*Task
}

// Job is a MapReduce job with its SLA: the paper's Job tuple
// <id, earliest start time, deadline> plus the arrival time used by the
// open-system resource manager.
type Job struct {
	ID int
	// Arrival is v_j, the time the job enters the system.
	Arrival int64
	// EarliestStart is s_j: the job may not start before this instant.
	EarliestStart int64
	// Deadline is d_j, the end-to-end SLA deadline.
	Deadline int64

	MapTasks    []*Task
	ReduceTasks []*Task

	// TaskPrecedence switches the job from classic MapReduce semantics
	// (every reduce task waits for every map task) to user-specified
	// task-level precedence via Task.Preds — the paper's future-work
	// workflow generalization. Task Type then only selects which slot pool
	// a task occupies.
	TaskPrecedence bool
}

// NumTasks returns the total number of tasks of the job.
func (j *Job) NumTasks() int { return len(j.MapTasks) + len(j.ReduceTasks) }

// Tasks returns the job's tasks, map tasks first.
func (j *Job) Tasks() []*Task {
	out := make([]*Task, 0, j.NumTasks())
	out = append(out, j.MapTasks...)
	out = append(out, j.ReduceTasks...)
	return out
}

// TotalWork returns the sum of all task execution times.
func (j *Job) TotalWork() int64 {
	var w int64
	for _, t := range j.MapTasks {
		w += t.Exec
	}
	for _, t := range j.ReduceTasks {
		w += t.Exec
	}
	return w
}

// MinExecTime computes TE, the minimum execution time of the job assuming
// no other jobs are in the system (Table 3, deadline row): the makespan of
// the map phase on mapSlots parallel slots followed by the makespan of the
// reduce phase on reduceSlots slots, both scheduled with the LPT
// (longest-processing-time-first) list rule.
func (j *Job) MinExecTime(mapSlots, reduceSlots int64) int64 {
	return lptMakespan(j.MapTasks, mapSlots) + lptMakespan(j.ReduceTasks, reduceSlots)
}

// lptMakespan returns the list-scheduling makespan of tasks on n identical
// slots, assigning the longest task first to the least loaded slot.
func lptMakespan(tasks []*Task, n int64) int64 {
	if len(tasks) == 0 {
		return 0
	}
	if n <= 0 {
		panic("workload: makespan needs at least one slot")
	}
	if int64(len(tasks)) <= n {
		var m int64
		for _, t := range tasks {
			if t.Exec > m {
				m = t.Exec
			}
		}
		return m
	}
	durs := make([]int64, len(tasks))
	for i, t := range tasks {
		durs[i] = t.Exec
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] > durs[b] })
	// Min-heap of slot loads.
	loads := make([]int64, n)
	for _, d := range durs {
		// Pop the least loaded slot (linear scan is fine: n is the slot
		// count of a cluster, and this runs once per job).
		mi := 0
		for i := 1; i < len(loads); i++ {
			if loads[i] < loads[mi] {
				mi = i
			}
		}
		loads[mi] += d
	}
	var m int64
	for _, l := range loads {
		if l > m {
			m = l
		}
	}
	return m
}

// Validate performs sanity checks on a generated job.
func (j *Job) Validate() error {
	if j.EarliestStart < j.Arrival {
		return fmt.Errorf("workload: job %d has earliest start %d before arrival %d",
			j.ID, j.EarliestStart, j.Arrival)
	}
	if j.Deadline < j.EarliestStart {
		return fmt.Errorf("workload: job %d has deadline %d before earliest start %d",
			j.ID, j.Deadline, j.EarliestStart)
	}
	// A workflow may live in either pool alone; a MapReduce job needs a map
	// phase.
	if len(j.MapTasks) == 0 && (!j.TaskPrecedence || len(j.ReduceTasks) == 0) {
		return fmt.Errorf("workload: job %d has no map tasks", j.ID)
	}
	for typ, tasks := range [2][]*Task{j.MapTasks, j.ReduceTasks} {
		for _, t := range tasks {
			if t.Type != TaskType(typ) {
				return fmt.Errorf("workload: job %d task %s of type %d is in the %s list", j.ID, t.ID, t.Type, TaskType(typ))
			}
			if t.Exec <= 0 {
				return fmt.Errorf("workload: job %d task %s has non-positive execution time %d",
					j.ID, t.ID, t.Exec)
			}
			if t.Req <= 0 {
				return fmt.Errorf("workload: job %d task %s has non-positive demand %d", j.ID, t.ID, t.Req)
			}
			if t.JobID != j.ID {
				return fmt.Errorf("workload: job %d task %s has parent job %d", j.ID, t.ID, t.JobID)
			}
			if !j.TaskPrecedence && len(t.Preds) > 0 {
				return fmt.Errorf("workload: job %d task %s has preds but the job is not marked TaskPrecedence",
					j.ID, t.ID)
			}
		}
	}
	if j.TaskPrecedence {
		return j.validatePrecedence()
	}
	return nil
}

// validatePrecedence checks a workflow's user-chosen task IDs for
// duplicates and its dependency graph for edges leaving the job and cycles.
func (j *Job) validatePrecedence() error {
	ids := make(map[string]bool, j.NumTasks())
	for _, tasks := range [2][]*Task{j.MapTasks, j.ReduceTasks} {
		for _, t := range tasks {
			if ids[t.ID] {
				return fmt.Errorf("workload: job %d has duplicate task id %q", j.ID, t.ID)
			}
			ids[t.ID] = true
		}
	}
	_, err := j.TopoOrder()
	return err
}

// taskID names a task by the paper's convention tJ_KIND_N.
func taskID(jobID int, typ TaskType, idx int) string {
	kind := byte('m')
	if typ == ReduceTask {
		kind = 'r'
	}
	var buf [32]byte
	id := append(buf[:0], 't')
	id = strconv.AppendInt(id, int64(jobID), 10)
	id = append(id, '_', kind)
	id = strconv.AppendInt(id, int64(idx), 10)
	return string(id)
}

// newTasks allocates the job's nMap map and nRed reduce tasks (allocTasks)
// and names them under the job's ID; the caller fills in execution times.
func (j *Job) newTasks(nMap, nRed int) {
	j.allocTasks(nMap, nRed)
	j.nameTasks()
}

// allocTasks allocates the job's nMap map and nRed reduce tasks as one
// block, with unit demand, and points MapTasks and ReduceTasks into it.
func (j *Job) allocTasks(nMap, nRed int) {
	block := make([]Task, nMap+nRed)
	j.MapTasks = make([]*Task, nMap)
	j.ReduceTasks = make([]*Task, nRed)
	for i := range block {
		block[i].Req = 1
		if i < nMap {
			j.MapTasks[i] = &block[i]
		} else {
			block[i].Type = ReduceTask
			j.ReduceTasks[i-nMap] = &block[i]
		}
	}
}

// nameTasks stamps the job's ID on every task and names each by taskID,
// numbered from 1 within its phase.
func (j *Job) nameTasks() {
	for _, tasks := range [2][]*Task{j.MapTasks, j.ReduceTasks} {
		for i, t := range tasks {
			t.JobID = j.ID
			t.ID = taskID(j.ID, t.Type, i+1)
		}
	}
}

// assignSLA fills arrival, earliest start, and deadline on the job from the
// shared Table 3 rules: s_j = v_j, or v_j + DU[1,smax] with probability p;
// d_j = s_j + TE * U[1, dUL].
func assignSLA(j *Job, arrivalMS int64, p float64, smaxMS int64, dUL float64,
	mapSlots, reduceSlots int64, rng *stats.Stream) {
	j.Arrival = arrivalMS
	j.EarliestStart = arrivalMS
	if p > 0 && (stats.Bernoulli{P: p}).SampleBool(rng) {
		j.EarliestStart = arrivalMS + (stats.DiscreteUniform{Lo: 1, Hi: smaxMS}).SampleInt(rng)
	}
	te := j.MinExecTime(mapSlots, reduceSlots)
	mult := (stats.Uniform{Lo: 1, Hi: dUL}).Sample(rng)
	j.Deadline = j.EarliestStart + int64(float64(te)*mult)
}
