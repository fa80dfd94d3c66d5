package rmkit

import (
	"sort"

	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// JobState is the kernel's per-job lifecycle record. Every manager tracks
// the same core facts — remaining work, charged retries, abandonment —
// while policy-specific schedulers use the queue and allocation fields as
// they see fit (MRCP-RM regenerates its work set from the simulator each
// round and leaves the queues empty).
type JobState struct {
	Job *workload.Job

	// PendingMaps and PendingReds queue not-yet-dispatched tasks for
	// reactive (slot-mirror) schedulers; tasks dispatch from the front and
	// failed attempts re-queue at the back.
	PendingMaps []*workload.Task
	PendingReds []*workload.Task
	// RunningMaps and RunningReds count dispatched-but-unfinished tasks per
	// phase, mirrored synchronously by ListScheduler.
	RunningMaps int64
	RunningReds int64
	// MapsLeft counts running or pending map tasks (the reduce barrier);
	// TasksLeft counts all uncompleted tasks.
	MapsLeft  int
	TasksLeft int

	// AllocMap and AllocRed are the job's current slot allocation targets
	// for allocation-model policies (MinEDF-WC's ARIA minimum); zero
	// elsewhere.
	AllocMap int64
	AllocRed int64

	// Retries counts failed attempts charged against the job's budget;
	// Abandoned marks a job given up on (it stays tracked while attempts
	// are still draining on the cluster, so their capacity stays modeled).
	Retries   int
	Abandoned bool
}

// MapsDone reports whether every map task completed (the reduce barrier).
func (js *JobState) MapsDone() bool { return js.MapsLeft == 0 }

// Requeue returns a failed, killed, or evacuated task to its pending queue.
func (js *JobState) Requeue(t *workload.Task) {
	if t.Type == workload.MapTask {
		js.PendingMaps = append(js.PendingMaps, t)
	} else {
		js.PendingReds = append(js.PendingReds, t)
	}
}

// ChargeRetry books one failed attempt of a task with taskAttempts total
// failures against the job and reports whether the budgets are now
// exhausted — the caller must then abandon the job.
func (js *JobState) ChargeRetry(p RetryPolicy, taskAttempts int) bool {
	js.Retries++
	return p.Exhausted(taskAttempts, js.Retries)
}

// Tracker owns the per-job lifecycle state of one manager: an active queue
// in a policy-chosen order plus a lookup index by job ID, which also
// resolves tasks (a valid job's tasks carry its ID).
type Tracker struct {
	// QueuePending makes Admit pre-fill each job's pending task queues (in
	// natural task order, as Hadoop-style dispatchers expect). Managers
	// that re-derive their work set from the simulator leave it false.
	QueuePending bool

	less  func(a, b *JobState) bool
	byID  map[int]*JobState
	order []*JobState
}

// NewTracker creates an empty tracker. less defines the active-queue order
// (jobs are inserted before the first queued job strictly greater than
// them, so equal keys keep insertion order); nil appends in admission
// order.
func NewTracker(less func(a, b *JobState) bool) *Tracker {
	return &Tracker{
		less: less,
		byID: make(map[int]*JobState),
	}
}

// Admit registers a job as active and returns its fresh state.
func (tr *Tracker) Admit(j *workload.Job) *JobState {
	js := &JobState{
		Job:       j,
		MapsLeft:  len(j.MapTasks),
		TasksLeft: j.NumTasks(),
	}
	if tr.QueuePending {
		js.PendingMaps = append([]*workload.Task(nil), j.MapTasks...)
		js.PendingReds = append([]*workload.Task(nil), j.ReduceTasks...)
	}
	tr.byID[j.ID] = js
	if tr.less == nil {
		tr.order = append(tr.order, js)
		return js
	}
	pos := sort.Search(len(tr.order), func(i int) bool { return tr.less(js, tr.order[i]) })
	tr.order = append(tr.order, nil)
	copy(tr.order[pos+1:], tr.order[pos:])
	tr.order[pos] = js
	return js
}

// Active returns the active queue in tracker order. Callers must not
// mutate the slice; it is invalidated by Admit, Dequeue, and Retire.
func (tr *Tracker) Active() []*JobState { return tr.order }

// Len returns the active-queue length.
func (tr *Tracker) Len() int { return len(tr.order) }

// ByID looks a job's state up by job ID.
func (tr *Tracker) ByID(id int) (*JobState, bool) {
	js, ok := tr.byID[id]
	return js, ok
}

// ByTask looks up the state of the job owning the task: job IDs are
// unique and Job.Validate holds every task's JobID to its job's.
func (tr *Tracker) ByTask(t *workload.Task) (*JobState, bool) {
	return tr.ByID(t.JobID)
}

// Dequeue removes the job from the active queue but keeps its lookup
// entry, so late completion or failure notifications for still-draining
// attempts of an abandoned job resolve.
func (tr *Tracker) Dequeue(js *JobState) {
	for i, other := range tr.order {
		if other == js {
			tr.order = append(tr.order[:i], tr.order[i+1:]...)
			break
		}
	}
}

// Retire removes the job from the active queue and the lookup index.
func (tr *Tracker) Retire(js *JobState) {
	tr.Dequeue(js)
	delete(tr.byID, js.Job.ID)
}

// AnyRunning reports whether any of the job's tasks is mid-execution —
// the condition that keeps an abandoned job tracked as a capacity-holding
// ghost until its last attempts drain.
func AnyRunning(ctx sim.Context, j *workload.Job) bool {
	for _, tasks := range [2][]*workload.Task{j.MapTasks, j.ReduceTasks} {
		for _, t := range tasks {
			if st := ctx.Status(t); st.Started && !st.Completed {
				return true
			}
		}
	}
	return false
}
