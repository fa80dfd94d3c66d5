// Package fifo implements a best-effort FIFO resource manager: the
// deadline-blind dispatcher the paper's introduction contrasts SLA-aware
// resource management against ("on-demand requests that are to be executed
// on a best-effort basis"). Jobs are served strictly in arrival order,
// work-conservingly, with the standard MapReduce rules (reduce tasks only
// after all of the job's maps, earliest start times respected).
//
// It exists as a second baseline: comparing MRCP-RM or MinEDF-WC against
// FIFO shows how much of their SLA performance comes from deadline
// awareness rather than from mere work conservation.
//
// All job-lifecycle machinery (deferral, retry budgets, abandonment) comes
// from the shared rmkit kernel and free capacity from the simulator; this
// package only supplies the queue discipline (arrival order) and the
// dispatch pass.
package fifo

import (
	"mrcprm/internal/rmkit"
	"mrcprm/internal/sim"
)

func init() {
	rmkit.Register("fifo", func(cluster sim.Cluster, opts rmkit.Options) (sim.ResourceManager, error) {
		m := New(cluster)
		if opts.Retry != nil {
			m.Retry = *opts.Retry
		}
		return m, nil
	})
}

// Manager is the FIFO best-effort scheduler; it implements
// sim.ResourceManager. Tune the embedded Retry policy before the
// simulation starts.
type Manager struct {
	*rmkit.ListScheduler
}

// New creates a FIFO manager for the cluster.
func New(cluster sim.Cluster) *Manager {
	// Admissions from the deferred queue slot in by arrival time for
	// determinism.
	m := &Manager{rmkit.NewListScheduler("fifo", cluster, func(a, b *rmkit.JobState) bool {
		return a.Job.Arrival < b.Job.Arrival
	})}
	m.Dispatch = m.dispatch
	return m
}

// Name implements sim.ResourceManager.
func (m *Manager) Name() string { return "FIFO" }

// dispatch fills free slots in strict arrival order.
func (m *Manager) dispatch(ctx sim.Context) error {
	for _, js := range m.Tracker.Active() {
		if err := m.DispatchJob(ctx, js, -1, -1); err != nil {
			return err
		}
	}
	return nil
}
