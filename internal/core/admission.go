package core

import (
	"fmt"
	"math"

	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// This file implements the service layer's admission control: a fast,
// solver-free lower bound on a job's completion time. A job whose SLA fails
// the bound is *provably* infeasible — no schedule, on an otherwise empty
// cluster, can meet its deadline — so an online service can reject (or flag)
// it before spending a CP solve on it.

// SLALowerBound returns a lower bound (ms) on the job's execution time on
// the cluster, assuming nothing else is running. Unlike
// workload.Job.MinExecTime (an LPT list-scheduling makespan, which may
// exceed the optimum), this is a true bound: each phase needs at least its
// longest task and at least its total work spread across every slot of the
// cluster, and classic MapReduce semantics force the reduce phase to start
// after the map phase ends. The longest-task term assumes the fastest
// machine and the spread term the aggregate speed-weighted slot capacity —
// both still true bounds on a heterogeneous cluster. On a uniform one the
// slot rate is an exact integer-valued float, so the spread term equals the
// integer ceiling of area over slots (TestPhaseBoundMatchesIntegerFormula).
// A workflow's two pools may run side by side, so its bound is the larger
// pool bound or its critical path on the fastest machine, not their sum.
func SLALowerBound(cluster sim.Cluster, j *workload.Job) int64 {
	mapLB := phaseLowerBound(j.MapTasks, cluster.MapSlots, cluster)
	redLB := phaseLowerBound(j.ReduceTasks, cluster.ReduceSlots, cluster)
	if j.TaskPrecedence {
		// ceil(path / speed) never exceeds the path's per-task ceilings.
		return max(mapLB, redLB, sim.ScaledExec(j.CriticalPath(), cluster.MaxSpeed()))
	}
	return mapLB + redLB
}

// phaseLowerBound bounds one phase: max(longest task on the fastest
// machine, total nominal work over the aggregate speed-weighted slot
// rate). Every slot of resource r retires nominal work at rate SpeedOf(r),
// so slotsPer * Σ_r speed_r nominal milliseconds of the phase drain per
// wall millisecond at best.
func phaseLowerBound(tasks []*workload.Task, slotsPer int64, cluster sim.Cluster) int64 {
	if slotsPer <= 0 || len(tasks) == 0 {
		return 0
	}
	var rate float64
	for r := 0; r < cluster.NumResources; r++ {
		rate += cluster.SpeedOf(r)
	}
	rate *= float64(slotsPer)
	if rate <= 0 {
		return 0
	}
	maxSpeed := cluster.MaxSpeed()
	var longest, area int64
	for _, t := range tasks {
		if e := sim.ScaledExec(t.Exec, maxSpeed); e > longest {
			longest = e
		}
		area += t.Exec * t.Req
	}
	if spread := int64(math.Ceil(float64(area) / rate)); spread > longest {
		return spread
	}
	return longest
}

// AdmissionError reports a provably infeasible SLA; the service returns it
// to the submitter (or attaches it as a flag when configured to admit
// anyway).
type AdmissionError struct {
	JobID int
	// EarliestFinish is the soonest the job could possibly complete
	// (max(now, earliest start) + lower bound); Deadline is what the SLA
	// asked for.
	EarliestFinish int64
	Deadline       int64
	// Unrunnable is the cluster's demand error when no resource can ever
	// host one of the job's tasks (EarliestFinish is then math.MaxInt64):
	// such a job is refused whatever the deadline.
	Unrunnable error
}

func (e *AdmissionError) Error() string {
	if e.Unrunnable != nil {
		return fmt.Sprintf("core: job %d cannot run: %v", e.JobID, e.Unrunnable)
	}
	return fmt.Sprintf("core: job %d SLA is infeasible: earliest possible finish %dms exceeds deadline %dms",
		e.JobID, e.EarliestFinish, e.Deadline)
}

// CheckAdmission returns an *AdmissionError when the job cannot run on the
// cluster at all (sim.Cluster.CheckDemand) or its SLA is provably
// infeasible at time now on an otherwise empty cluster, and nil otherwise.
// Passing the check does not guarantee the deadline will be met under load;
// failing it guarantees it will not.
func CheckAdmission(cluster sim.Cluster, j *workload.Job, now int64) error {
	for _, pool := range [][]*workload.Task{j.MapTasks, j.ReduceTasks} {
		for _, t := range pool {
			if err := cluster.CheckDemand(t); err != nil {
				return &AdmissionError{JobID: j.ID, EarliestFinish: math.MaxInt64, Deadline: j.Deadline, Unrunnable: err}
			}
		}
	}
	start := max(now, j.EarliestStart)
	if fin := start + SLALowerBound(cluster, j); fin > j.Deadline {
		return &AdmissionError{JobID: j.ID, EarliestFinish: fin, Deadline: j.Deadline}
	}
	return nil
}
