// Package rmkit is the shared resource-manager kernel: the job-lifecycle
// machinery every matchmaking-and-scheduling policy needs (per-job
// tracking, retry budgets and abandonment, the reactive dispatch loop),
// the policy registry that lets binaries, experiments, and the online
// service select a manager by name, and the list baselines.
//
// The paper's evaluation is a comparison of policies (MRCP-RM versus
// MinEDF-WC, Section VI). MinEDF-WC and the FIFO and EDF baselines are
// rows of one table (listPolicies) over ListScheduler, registered by this
// package's init; MRCP-RM (internal/core) registers itself. A new policy
// implements sim.ResourceManager — usually on top of
// Tracker/ListScheduler — and calls Register in an init function. Every
// entry point (cmd/mrcpsim -rm, cmd/mrcpd -rm, the experiment harness, the
// public mrcprm facade) resolves policies through the registry.
package rmkit

// RetryPolicy is the canonical fault-recovery budget shared by every
// resource manager. A task attempt that fails (injected failure or outage
// kill) is charged against both budgets; exhausting either abandons the
// task's job.
type RetryPolicy struct {
	// MaxTaskRetries caps the failed execution attempts of a single task;
	// one more failure abandons the task's job. Zero means unlimited.
	MaxTaskRetries int
	// JobRetryBudget caps the total failed attempts across all tasks of one
	// job before the job is abandoned. Zero means unlimited.
	JobRetryBudget int
}

// DefaultRetryPolicy is the budget every built-in policy installs by
// default, so head-to-head comparisons under faults stay fair.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{MaxTaskRetries: 4} }

// Exhausted reports whether a job is over budget after its latest failed
// attempt: taskAttempts is the failed-attempt count of the task that just
// failed (including the new failure), jobRetries the job-wide total.
func (p RetryPolicy) Exhausted(taskAttempts, jobRetries int) bool {
	return (p.MaxTaskRetries > 0 && taskAttempts > p.MaxTaskRetries) ||
		(p.JobRetryBudget > 0 && jobRetries > p.JobRetryBudget)
}
