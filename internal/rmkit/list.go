package rmkit

import (
	"fmt"
	"slices"
	"time"

	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// ListScheduler is the shared reactive-manager kernel: the Hadoop-style
// slot-based schedulers (FIFO, EDF, MinEDF-WC; the rows of listPolicies)
// differ only in their queue discipline and dispatch pass, so this type
// owns everything else — the deferred-arrival queue, the job tracker, retry
// charging and abandonment, and every simulator callback.
//
// The dispatch pass fills free capacity from the active queue after every
// lifecycle event; DispatchJob is the standard per-job inner loop. Free
// capacity and a job's progress are the simulator's to know
// (sim.Context.FirstFit, JobState.Sim): the kernel keeps no copy of either,
// only each job's pending queues.
type ListScheduler struct {
	// Kind prefixes error messages ("fifo: completion for unknown task…").
	Kind string
	// Cluster is the simulated system shape.
	Cluster sim.Cluster
	// Retry is the fault-recovery budget; adjust before the run starts.
	Retry RetryPolicy
	// Tracker owns per-job lifecycle state.
	Tracker *Tracker

	name     string                                  // Name's display name
	dispatch func(*ListScheduler, sim.Context) error // fills free capacity
	deferred []*workload.Job                         // arrived, earliest start in the future
}

// NewListScheduler assembles the kernel for a policy: kind prefixes its
// errors, name is its display name, less orders the active queue (nil =
// admission order), and dispatch fills free capacity after every lifecycle
// event. The default retry budget is installed.
func NewListScheduler(kind, name string, cluster sim.Cluster, less func(a, b *JobState) bool,
	dispatch func(*ListScheduler, sim.Context) error) *ListScheduler {
	return &ListScheduler{
		Kind:     kind,
		Cluster:  cluster,
		Retry:    DefaultRetryPolicy(),
		Tracker:  NewTracker(less),
		name:     name,
		dispatch: dispatch,
	}
}

// Name implements sim.ResourceManager.
func (ls *ListScheduler) Name() string { return ls.name }

// admit makes a job active with every task queued, in natural task order,
// as Hadoop-style dispatchers expect.
func (ls *ListScheduler) admit(ctx sim.Context, j *workload.Job) {
	js := ls.Tracker.Admit(j, ctx.Job(j))
	js.PendingMaps = append([]*workload.Task(nil), j.MapTasks...)
	js.PendingReds = append([]*workload.Task(nil), j.ReduceTasks...)
}

// OnJobArrival implements sim.ResourceManager: jobs whose earliest start
// time is in the future are parked until a timer releases them.
func (ls *ListScheduler) OnJobArrival(ctx sim.Context, j *workload.Job) error {
	started := time.Now()
	if j.EarliestStart > ctx.Now() {
		ls.deferred = append(ls.deferred, j)
		ctx.SetTimer(j.EarliestStart)
	} else {
		ls.admit(ctx, j)
	}
	err := ls.dispatch(ls, ctx)
	ctx.AddOverhead(time.Since(started))
	return err
}

// OnTimer implements sim.ResourceManager: it admits deferred jobs whose
// earliest start time has arrived.
func (ls *ListScheduler) OnTimer(ctx sim.Context) error {
	started := time.Now()
	rest := ls.deferred[:0]
	for _, j := range ls.deferred {
		if j.EarliestStart <= ctx.Now() {
			ls.admit(ctx, j)
		} else {
			rest = append(rest, j)
		}
	}
	ls.deferred = rest
	err := ls.dispatch(ls, ctx)
	ctx.AddOverhead(time.Since(started))
	return err
}

// OnTaskComplete implements sim.ResourceManager. Completions of abandoned
// jobs' draining attempts only discard their output; a job retires with its
// last task or its last draining attempt.
func (ls *ListScheduler) OnTaskComplete(ctx sim.Context, t *workload.Task) error {
	started := time.Now()
	js, ok := ls.Tracker.ByTask(t)
	if !ok {
		return fmt.Errorf("%s: completion for unknown task %s", ls.Kind, t.ID)
	}
	ls.Tracker.RetireDrained(js)
	err := ls.dispatch(ls, ctx)
	ctx.AddOverhead(time.Since(started))
	return err
}

// OnTaskFailed implements sim.FaultHooks: the task is re-queued for another
// attempt (its job keeps its place in the active order). Exhausted retry
// budgets abandon the job.
func (ls *ListScheduler) OnTaskFailed(ctx sim.Context, t *workload.Task, _ int) error {
	started := time.Now()
	js, ok := ls.Tracker.ByTask(t)
	if !ok {
		return fmt.Errorf("%s: failure for unknown task %s", ls.Kind, t.ID)
	}
	if err := ls.chargeRetry(ctx, js, t); err != nil {
		return err
	}
	err := ls.dispatch(ls, ctx)
	ctx.AddOverhead(time.Since(started))
	return err
}

// OnResourceDown implements sim.FaultHooks: killed attempts are charged
// against retry budgets and re-queued, evacuated placements re-queued for
// free; dispatch skips the down resource because FirstFit does.
func (ls *ListScheduler) OnResourceDown(ctx sim.Context, _ int, killed, evacuated []*workload.Task) error {
	started := time.Now()
	// Resolve every task before charging any: a kill can abandon and retire
	// its job, and that job's other kills and evacuations must then count
	// as drained, not as tasks of a job the kernel never admitted.
	states := make([]*JobState, 0, len(killed)+len(evacuated))
	for _, t := range append(slices.Clip(killed), evacuated...) {
		js, ok := ls.Tracker.ByTask(t)
		if !ok {
			return fmt.Errorf("%s: outage kill or evacuation of unknown task %s", ls.Kind, t.ID)
		}
		states = append(states, js)
	}
	for i, t := range killed {
		if err := ls.chargeRetry(ctx, states[i], t); err != nil {
			return err
		}
	}
	for i, t := range evacuated {
		if js := states[len(killed)+i]; !js.Sim.Abandoned() {
			js.Requeue(t)
		}
	}
	err := ls.dispatch(ls, ctx)
	ctx.AddOverhead(time.Since(started))
	return err
}

// OnResourceUp implements sim.FaultHooks: the repaired resource takes work
// again at the next dispatch.
func (ls *ListScheduler) OnResourceUp(ctx sim.Context, _ int) error {
	started := time.Now()
	err := ls.dispatch(ls, ctx)
	ctx.AddOverhead(time.Since(started))
	return err
}

// OnTaskSlowdown implements sim.FaultHooks as a no-op: reactive schedulers
// dispatch tasks at the current instant into capacity freed by actual
// completion events, so an overrunning attempt cannot collide with
// pre-planned work.
func (ls *ListScheduler) OnTaskSlowdown(sim.Context, *workload.Task) error { return nil }

// chargeRetry books one failed attempt: the task is re-queued unless its
// job exhausted a retry budget, in which case the job is abandoned. The end
// of an abandoned job's draining attempt is charged nothing; it retires the
// job when it was the last.
func (ls *ListScheduler) chargeRetry(ctx sim.Context, js *JobState, t *workload.Task) error {
	if js.Sim.Abandoned() {
		ls.Tracker.RetireDrained(js)
		return nil
	}
	if !js.ChargeRetry(ls.Retry, ctx.Attempts(t)) {
		js.Requeue(t)
		return nil
	}
	return ls.Abandon(ctx, js)
}

// Abandon gives up on a job: the simulator drops its pending work and the
// job leaves the active queue. It retires at once when no attempt of it is
// running, and otherwise when the last one ends (its lookup entry stays
// live until then so their notifications resolve).
func (ls *ListScheduler) Abandon(ctx sim.Context, js *JobState) error {
	if err := ctx.AbandonJob(js.Job); err != nil {
		return err
	}
	js.PendingMaps, js.PendingReds = nil, nil
	ls.Tracker.Dequeue(js)
	ls.Tracker.RetireDrained(js)
	return nil
}

// DispatchJob starts the job's pending tasks at the current instant, each
// on the first resource the simulator says it fits on, and stops at the
// first task that fits nowhere. mapCap and redCap bound the job's
// concurrently running tasks per phase (an allocation-model policy's first
// pass); negative caps mean unbounded (work-conserving). Reduce tasks start
// only after all of the job's maps completed.
func (ls *ListScheduler) DispatchJob(ctx sim.Context, js *JobState, mapCap, redCap int64) error {
	for len(js.PendingMaps) > 0 {
		if mapCap >= 0 && int64(js.Sim.Placed(workload.MapTask)) >= mapCap {
			break
		}
		t := js.PendingMaps[0]
		r := ctx.FirstFit(t)
		if r < 0 {
			break
		}
		js.PendingMaps = js.PendingMaps[1:]
		if err := ctx.Schedule(t, r, ctx.Now()); err != nil {
			return err
		}
	}
	if js.Sim.MapsLeft() == 0 {
		for len(js.PendingReds) > 0 {
			if redCap >= 0 && int64(js.Sim.Placed(workload.ReduceTask)) >= redCap {
				break
			}
			t := js.PendingReds[0]
			r := ctx.FirstFit(t)
			if r < 0 {
				break
			}
			js.PendingReds = js.PendingReds[1:]
			if err := ctx.Schedule(t, r, ctx.Now()); err != nil {
				return err
			}
		}
	}
	return nil
}
