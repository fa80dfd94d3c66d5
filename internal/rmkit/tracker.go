package rmkit

import (
	"sort"

	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// JobState is the kernel's per-job lifecycle record: what a manager decides
// about a job. What the job's tasks have done — tasks left, placed and
// running, abandonment — is the simulator's to know, read through Sim.
// Policy-specific schedulers use the queue and allocation fields as they see
// fit (MRCP-RM regenerates its work set from the simulator each round and
// leaves the queues empty).
type JobState struct {
	Job *workload.Job
	// Sim is the simulator's record of the job.
	Sim sim.JobRef

	// PendingMaps and PendingReds queue not-yet-dispatched tasks for
	// reactive schedulers; tasks dispatch from the front and failed
	// attempts re-queue at the back.
	PendingMaps []*workload.Task
	PendingReds []*workload.Task

	// AllocMap and AllocRed are the job's current slot allocation targets
	// for allocation-model policies (MinEDF-WC's ARIA minimum); zero
	// elsewhere.
	AllocMap int64
	AllocRed int64

	// Retries counts failed attempts charged against the job's budget.
	Retries int
}

// Drained reports whether nothing of the job is left to notify its manager:
// every task completed, or the job was abandoned and its last attempt has
// ended.
func (js *JobState) Drained() bool {
	return js.Sim.Left() == 0 || js.Sim.Abandoned() && js.Sim.Running() == 0
}

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

// Admit registers a job, with the simulator's record of it, as active and
// returns its fresh state.
func (tr *Tracker) Admit(j *workload.Job, run sim.JobRef) *JobState {
	js := &JobState{Job: j, Sim: run}
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

// RetireDrained retires the job if it is drained (JobState.Drained).
func (tr *Tracker) RetireDrained(js *JobState) {
	if js.Drained() {
		tr.Retire(js)
	}
}
