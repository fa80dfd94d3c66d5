package sim

import (
	"encoding/binary"
	"hash/fnv"
	"time"

	"mrcprm/internal/workload"
)

// JobRecord is the per-job outcome of a simulation run.
type JobRecord struct {
	Job        *workload.Job
	Completion int64 // completion time CT_j (ms); 0 until completed
	Done       bool
}

// Late reports whether the job finished after its deadline.
func (r JobRecord) Late() bool { return r.Done && r.Completion > r.Job.Deadline }

// TurnaroundMS returns CT_j - s_j, the paper's per-job turnaround.
func (r JobRecord) TurnaroundMS() int64 { return r.Completion - r.Job.EarliestStart }

// Metrics aggregates the paper's performance metrics over one run.
type Metrics struct {
	JobsArrived   int
	JobsCompleted int
	// N: number of jobs that missed their deadlines.
	LateJobs int
	// Sum of CT_j - s_j over completed jobs, for T.
	totalTurnaroundMS int64
	// Total matchmaking and scheduling wall time, for O.
	totalOverhead time.Duration
	// Invocations counts resource manager scheduling rounds.
	Invocations int
	// MakespanMS is the completion time of the last job.
	MakespanMS int64
	// BusySlotMS accumulates slot-milliseconds of executed work, split by
	// slot kind; together with MakespanMS it yields utilization figures.
	BusyMapSlotMS    int64
	BusyReduceSlotMS int64
	// ResourceActiveMS accumulates resource-milliseconds during which a
	// resource had at least one task running — the quantity a pay-per-use
	// cloud bills for (the paper's future-work cost direction).
	ResourceActiveMS int64
	// TotalLatenessMS and MaxLatenessMS quantify how badly the late jobs
	// missed (the paper's N counts them; these add magnitude).
	TotalLatenessMS int64
	MaxLatenessMS   int64

	// Failure accounting (all zero on fault-free runs).
	//
	// TasksFailed counts attempts that failed mid-execution; TasksKilled
	// counts attempts killed by a resource outage; TasksRetried counts
	// re-executions started after a failed or killed attempt. JobsAbandoned
	// counts jobs given up by the manager (each counts against the SLA in
	// P). Outages counts resource down events, DowntimeMS their summed
	// durations, and WastedSlotMS the slot-milliseconds of work lost to
	// failed and killed attempts.
	TasksFailed   int
	TasksKilled   int
	TasksRetried  int
	JobsAbandoned int
	Outages       int
	DowntimeMS    int64
	WastedSlotMS  int64

	Records []JobRecord
}

// MapUtilization returns the fraction of map slot capacity used over the
// run's makespan, in [0, 1].
func (m *Metrics) MapUtilization(cluster Cluster) float64 {
	den := float64(cluster.TotalMapSlots()) * float64(m.MakespanMS)
	if den == 0 {
		return 0
	}
	return float64(m.BusyMapSlotMS) / den
}

// ReduceUtilization returns the fraction of reduce slot capacity used over
// the run's makespan, in [0, 1].
func (m *Metrics) ReduceUtilization(cluster Cluster) float64 {
	den := float64(cluster.TotalReduceSlots()) * float64(m.MakespanMS)
	if den == 0 {
		return 0
	}
	return float64(m.BusyReduceSlotMS) / den
}

// P returns the proportion of jobs that violated their SLA — late or
// abandoned — over the jobs that arrived, in [0, 1].
func (m *Metrics) P() float64 {
	if m.JobsArrived == 0 {
		return 0
	}
	return float64(m.LateJobs+m.JobsAbandoned) / float64(m.JobsArrived)
}

// T returns the average job turnaround time in seconds.
func (m *Metrics) T() float64 {
	if m.JobsCompleted == 0 {
		return 0
	}
	return float64(m.totalTurnaroundMS) / float64(m.JobsCompleted) / 1000
}

// O returns the average matchmaking and scheduling time per job in seconds
// (total overhead divided by the number of jobs mapped and scheduled).
func (m *Metrics) O() float64 {
	if m.JobsCompleted == 0 {
		return 0
	}
	return m.totalOverhead.Seconds() / float64(m.JobsCompleted)
}

// N returns the number of late jobs.
func (m *Metrics) N() int { return m.LateJobs }

// Fingerprint hashes every simulated-time-derived field of the metrics,
// including the per-job records, into one value. Two runs of the same
// workload, manager, and fault plan must produce equal fingerprints; the
// wall-clock overhead metric O is deliberately excluded because it varies
// run to run.
func (m *Metrics) Fingerprint() uint64 {
	h := fnv.New64a()
	w := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	w(int64(m.JobsArrived), int64(m.JobsCompleted), int64(m.LateJobs),
		m.totalTurnaroundMS, int64(m.Invocations), m.MakespanMS,
		m.BusyMapSlotMS, m.BusyReduceSlotMS, m.ResourceActiveMS,
		m.TotalLatenessMS, m.MaxLatenessMS,
		int64(m.TasksFailed), int64(m.TasksKilled), int64(m.TasksRetried),
		int64(m.JobsAbandoned), int64(m.Outages), m.DowntimeMS, m.WastedSlotMS)
	for _, r := range m.Records {
		done := int64(0)
		if r.Done {
			done = 1
		}
		w(int64(r.Job.ID), r.Completion, done)
	}
	return h.Sum64()
}
