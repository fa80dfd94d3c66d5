package sim

import "mrcprm/internal/workload"

// This file defines the simulator side of the fault-injection layer: the
// injector interface the engine consumes (implemented by internal/faults),
// the extra lifecycle hooks fault-aware resource managers implement, and
// the embeddable no-op implementation for managers that predate faults.
//
// Fault semantics:
//
//   - A task-attempt failure releases the task's slots at the failure
//     instant; the work done so far is lost (WastedSlotMS) and the task
//     becomes schedulable again. The manager is told via OnTaskFailed and
//     must eventually re-place the task (or abandon the job).
//   - A resource outage kills every task running on the resource (each kill
//     counts as a failed attempt) and evacuates every pending placement on
//     it; the manager is told once via OnResourceDown with both lists.
//     While down, the resource accepts no placements.
//   - A repair makes the resource usable again; OnResourceUp lets the
//     manager re-expand onto it.
//
// With no injector installed the engine behaves bit-identically to the
// fault-free simulator.

// AttemptFault is the injected fate of one execution attempt of a task.
type AttemptFault struct {
	// Factor is the execution-time multiplier (straggler slowdown); values
	// below 1 are treated as 1.
	Factor float64
	// Fails reports whether this attempt fails before completing.
	Fails bool
	// FailPoint is the fraction of the attempt's effective execution time
	// at which the failure occurs, in (0, 1].
	FailPoint float64
}

// Outage is one planned resource outage window.
type Outage struct {
	Resource int
	// DownAt and UpAt are the absolute simulated times (ms) the resource
	// goes down and comes back; UpAt must be greater than DownAt.
	DownAt int64
	UpAt   int64
}

// FaultInjector supplies a deterministic fault plan to the simulator.
// internal/faults.Plan is the standard implementation; tests may supply
// their own.
type FaultInjector interface {
	// Attempt returns the fate of the given execution attempt (0-based
	// count of prior failures) of the task.
	Attempt(taskID string, attempt int) AttemptFault
	// PlannedOutages lists every resource outage window, in any order.
	PlannedOutages() []Outage
}

// FaultHooks is the failure-recovery part of ResourceManager. Managers that
// cannot recover may embed NoFaults, but a simulation with an injector
// installed will then end with incomplete jobs.
type FaultHooks interface {
	// OnTaskFailed fires when a running task's attempt fails (not for
	// outage kills, which arrive batched through OnResourceDown). The
	// task's slots on resource res have been released and it is
	// schedulable again. Fires for abandoned jobs' draining attempts too,
	// so managers mirroring slot state stay coherent.
	OnTaskFailed(ctx Context, t *workload.Task, res int) error
	// OnResourceDown fires when a resource goes down, after the simulator
	// killed the tasks running on it (killed, each counted as a failed
	// attempt) and removed the pending placements on it (evacuated).
	OnResourceDown(ctx Context, res int, killed, evacuated []*workload.Task) error
	// OnResourceUp fires when a resource comes back from an outage.
	OnResourceUp(ctx Context, res int) error
	// OnTaskSlowdown fires when a task starts an attempt whose effective
	// execution time exceeds the nominal t.Exec (a straggler). Managers
	// that pre-plan future starts must replan around the overrun —
	// ctx.Status(t).Exec reports the attempt's true duration — or later start
	// events may find their slots still occupied. Purely reactive managers
	// can ignore it.
	OnTaskSlowdown(ctx Context, t *workload.Task) error
}

// NoFaults is an embeddable no-op FaultHooks implementation for resource
// managers that do not handle failures.
type NoFaults struct{}

// OnTaskFailed implements FaultHooks as a no-op.
func (NoFaults) OnTaskFailed(Context, *workload.Task, int) error { return nil }

// OnResourceDown implements FaultHooks as a no-op.
func (NoFaults) OnResourceDown(Context, int, []*workload.Task, []*workload.Task) error { return nil }

// OnResourceUp implements FaultHooks as a no-op.
func (NoFaults) OnResourceUp(Context, int) error { return nil }

// OnTaskSlowdown implements FaultHooks as a no-op.
func (NoFaults) OnTaskSlowdown(Context, *workload.Task) error { return nil }
