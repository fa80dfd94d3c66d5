// Package minedf implements the MinEDF-WC baseline of Verma et al. that
// the paper compares MRCP-RM against (Section VI.B.1, reference [8]).
//
// MinEDF-WC is a slot-based Hadoop-style scheduler:
//
//   - Jobs are ordered by earliest deadline first (EDF).
//   - Each job receives the minimum number of map and reduce slots that its
//     ARIA performance model predicts it needs to finish by its deadline.
//   - Spare slots are allocated work-conservingly to active jobs in EDF
//     order, and are de-allocated (returned at the next task boundary) when
//     a newly arriving job needs them for its minimum allocation.
//
// The completion-time model is the ARIA bound pair: with n tasks of mean
// duration avg and maximum max on k slots, the phase duration lies between
// n*avg/k (lower) and (n-1)*avg/k + max (upper); the model uses the average
// of the bounds. The minimum allocation is the smallest (s_m, s_r) pair,
// by total slots, whose estimate meets the deadline.
//
// All job-lifecycle machinery (deferral, retry budgets, abandonment) comes
// from the shared rmkit kernel and free capacity from the simulator; this
// package supplies the EDF queue discipline, the ARIA allocation model, and
// the two-pass dispatch.
package minedf

import (
	"mrcprm/internal/rmkit"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

func init() {
	rmkit.Register("minedf", func(cluster sim.Cluster, opts rmkit.Options) (sim.ResourceManager, error) {
		m := New(cluster)
		if opts.Retry != nil {
			m.Retry = *opts.Retry
		}
		return m, nil
	})
}

// phaseProfile summarizes one phase (map or reduce) of a job.
type phaseProfile struct {
	n   int64 // remaining tasks
	avg float64
	max float64
}

// duration estimates the phase duration on k slots using the ARIA
// average-of-bounds model; k must be positive when n > 0.
func (p phaseProfile) duration(k int64) float64 {
	if p.n == 0 {
		return 0
	}
	lower := float64(p.n) * p.avg / float64(k)
	upper := float64(p.n-1)*p.avg/float64(k) + p.max
	return (lower + upper) / 2
}

func profileOf(tasks []*workload.Task) phaseProfile {
	p := phaseProfile{n: int64(len(tasks))}
	if p.n == 0 {
		return p
	}
	var sum int64
	for _, t := range tasks {
		sum += t.Exec
		if f := float64(t.Exec); f > p.max {
			p.max = f
		}
	}
	p.avg = float64(sum) / float64(p.n)
	return p
}

// Manager is the MinEDF-WC resource manager; it implements
// sim.ResourceManager. Tune the embedded Retry policy before the
// simulation starts.
type Manager struct {
	*rmkit.ListScheduler
}

// New creates a MinEDF-WC manager for the given cluster.
func New(cluster sim.Cluster) *Manager {
	m := &Manager{rmkit.NewListScheduler("minedf", cluster, func(a, b *rmkit.JobState) bool {
		return a.Job.Deadline < b.Job.Deadline
	})}
	m.Dispatch = m.dispatch
	return m
}

// Name implements sim.ResourceManager.
func (m *Manager) Name() string { return "MinEDF-WC" }

// updateAllocations recomputes each active job's minimum slot allocation
// from its remaining work and time to deadline.
func (m *Manager) updateAllocations(now int64) {
	for _, js := range m.Tracker.Active() {
		js.AllocMap, js.AllocRed = m.minAllocation(js, now)
	}
}

// minAllocation finds the smallest (s_m, s_r) meeting the deadline under
// the ARIA model; if the deadline is unreachable even with the whole
// cluster, it returns the maximum allocation (the job is served best
// effort, matching MinEDF-WC's behavior for infeasible jobs).
func (m *Manager) minAllocation(js *rmkit.JobState, now int64) (int64, int64) {
	mapsP := profileOf(js.PendingMaps)
	redsP := profileOf(js.PendingReds)
	totalMap := m.Cluster.TotalMapSlots()
	totalRed := m.Cluster.TotalReduceSlots()
	budget := float64(js.Job.Deadline - now)
	if left := js.Sim.MapsLeft(); left > 0 && len(js.PendingMaps) < left {
		// Maps still running contribute to the barrier; approximate their
		// remainder with one average map duration.
		budget -= mapsP.avg
	}

	bestM, bestR := int64(-1), int64(-1)
	bestTotal := int64(1<<63 - 1)
	maxM := min64(totalMap, max64(mapsP.n, 1))
	for sm := int64(1); sm <= maxM; sm++ {
		remain := budget - mapsP.duration(sm)
		if remain < 0 {
			continue
		}
		var sr int64
		if redsP.n > 0 {
			sr = -1
			maxR := min64(totalRed, redsP.n)
			for k := int64(1); k <= maxR; k++ {
				if redsP.duration(k) <= remain {
					sr = k
					break
				}
			}
			if sr < 0 {
				continue
			}
		}
		if sm+sr < bestTotal {
			bestM, bestR, bestTotal = sm, sr, sm+sr
		}
	}
	if bestM < 0 {
		// Infeasible: run wide open.
		bestM = min64(totalMap, max64(mapsP.n, 1))
		bestR = min64(totalRed, redsP.n)
	}
	return bestM, bestR
}

// dispatch fills free slots: a first pass honors minimum allocations in
// EDF order, a second pass is work-conserving.
func (m *Manager) dispatch(ctx sim.Context) error {
	m.updateAllocations(ctx.Now())
	for _, workConserving := range []bool{false, true} {
		for _, js := range m.Tracker.Active() {
			mapCap, redCap := js.AllocMap, js.AllocRed
			if workConserving {
				mapCap, redCap = -1, -1
			}
			if err := m.DispatchJob(ctx, js, mapCap, redCap); err != nil {
				return err
			}
		}
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
