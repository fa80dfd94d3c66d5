// Package core implements MRCP-RM, the paper's contribution: a constraint
// programming based resource manager that performs matchmaking and
// scheduling of an open stream of MapReduce jobs with SLAs (earliest start
// time, execution time, end-to-end deadline), minimizing the number of
// late jobs.
//
// On every invocation (job arrival or deferred-job release) the manager
// regenerates a CP model of all incomplete work — freezing tasks that have
// already started, exactly as Table 2 of the paper prescribes — solves it
// with the internal/cp engine, and installs the resulting schedule into the
// simulation. By default it uses the paper's Section V.D optimization:
// scheduling is solved on a single combined resource and a gap-based
// matchmaking pass maps tasks onto the real resources; Section V.E's
// deferral of far-future jobs is also implemented.
package core

import (
	"time"

	"mrcprm/internal/cp"
	"mrcprm/internal/rmkit"
	"mrcprm/internal/sim"
)

func init() {
	rmkit.Register("mrcp", func(cluster sim.Cluster, opts rmkit.Options) (sim.ResourceManager, error) {
		cfg, ok := opts.Extra.(Config)
		if !ok {
			cfg = DefaultConfig()
		}
		if opts.Retry != nil {
			cfg.Retry = *opts.Retry
		}
		return New(cluster, cfg), nil
	})
}

// SolveMode selects how matchmaking is handled.
type SolveMode int

const (
	// ModeCombined is the paper's optimized two-phase approach (Section
	// V.D): solve scheduling on one combined resource whose capacity is the
	// sum of all resources, then run the gap-based matchmaking algorithm.
	ModeCombined SolveMode = iota
	// ModeDirect models matchmaking inside the CP program with one
	// alternative (resource variable) per task — the unoptimized
	// formulation of Table 1. Exponentially more expensive; it is the
	// formulation of every heterogeneous or memory-constrained cluster
	// (Config.formulation), and otherwise used for small systems and the
	// ablation benchmark.
	ModeDirect
)

func (m SolveMode) String() string {
	if m == ModeDirect {
		return "direct"
	}
	return "combined"
}

// Config tunes MRCP-RM.
type Config struct {
	// Mode selects combined (default) or direct matchmaking.
	Mode SolveMode
	// SolveTimeLimit bounds each CP solve's improvement phase. The first
	// greedy solution is always completed. Zero means no time limit.
	SolveTimeLimit time.Duration
	// NodeLimit bounds each CP solve's search nodes (0 = solver default).
	NodeLimit int64
	// Ordering is the job ordering strategy of Section VI.B; EDF is the
	// paper's reported configuration.
	Ordering cp.OrderingStrategy
	// DeferralLead implements Section V.E: a job whose earliest start time
	// is more than this far in the future is parked and only enters
	// matchmaking when s_j is at most DeferralLead away. Zero disables
	// deferral (every job is scheduled on arrival).
	DeferralLead time.Duration
	// Retry is the canonical fault-recovery budget (per-task retry cap,
	// per-job retry budget) shared with every other policy via rmkit.
	Retry rmkit.RetryPolicy
	// WarmStart seeds every CP solve's incumbent from the currently
	// installed timetable (cp.Params.Hint): surviving tasks aim at their
	// previous starts, so the solver opens near the prior objective and
	// skips its branch-and-bound proof phase (see cp.Hint). Warm-started
	// runs remain self-consistent (same stream ⇒ same fingerprint) but
	// install different — not bit-identical — schedules than cold runs.
	// The default (false) keeps every solve bit-identical to earlier
	// releases.
	WarmStart bool
}

// formulation returns the model formulation for the planning cluster: the
// configured mode, except that combined mode — whose single-resource
// relaxation assumes interchangeable unit slots — gives way to the direct
// formulation when the cluster is heterogeneous or memory-constrained. It
// is the one place the choice is made; buildModel records it on the model
// for the read-back.
func (c Config) formulation(plan sim.Cluster) SolveMode {
	if plan.Heterogeneous() || plan.MemCapacity > 0 {
		return ModeDirect
	}
	return c.Mode
}

// DefaultConfig returns the configuration used by the experiments: combined
// mode, EDF ordering, a 200ms solve budget, and a 30s deferral lead.
func DefaultConfig() Config {
	return Config{
		Mode:           ModeCombined,
		SolveTimeLimit: 200 * time.Millisecond,
		NodeLimit:      100_000,
		Ordering:       cp.OrderEDF,
		DeferralLead:   30 * time.Second,
		Retry:          rmkit.DefaultRetryPolicy(),
	}
}

// DeterministicConfig returns DefaultConfig with the one wall-clock-dependent
// solver knob pinned: no solve time limit, a deterministic node budget
// bounds the search instead. Two runs over the same job stream then produce
// byte-identical schedules — the setting required for journal replay
// recovery and fingerprint verification.
func DeterministicConfig() Config {
	cfg := DefaultConfig()
	cfg.SolveTimeLimit = 0
	cfg.NodeLimit = 50_000
	return cfg
}

// Stats exposes counters accumulated by the manager across a run; useful
// for the experiment harness and for tests.
type Stats struct {
	// Rounds counts scheduling invocations that ran the solver.
	Rounds int
	// SolverNodes sums search nodes over all solves.
	SolverNodes int64
	// Slips is always 0, since the matchmaking pass places every task at
	// its CP start or fails the round; the benchmark harness still reports
	// it.
	Slips int
	// Deferred counts jobs parked by the Section V.E optimization.
	Deferred int
	// FallbackRounds is always 0, since a failed solve fails the round;
	// the benchmark harness still reports it.
	FallbackRounds int
	// TaskRetries counts failed task attempts charged against retry
	// budgets; JobsAbandoned counts jobs given up after exhausting theirs.
	TaskRetries   int
	JobsAbandoned int
	// WarmStartRounds counts solves that entered the solver with a
	// warm-start hint; WarmStartSeeded counts those whose hint repair
	// produced the first incumbent.
	WarmStartRounds int
	WarmStartSeeded int
}
