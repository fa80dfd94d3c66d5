package experiment

import (
	"fmt"

	"mrcprm/internal/faults"
	"mrcprm/internal/workload"
)

// FailureRates are the injected per-attempt task failure probabilities
// swept by the robustness experiment (0% is the fault-free control, run
// through the same injector code path).
var FailureRates = []float64{0, 0.02, 0.05, 0.10}

// runFaultSweep compares MRCP-RM and MinEDF-WC on the default Table 3
// workload while a seeded injector fails a growing fraction of task
// attempts. Every policy faces the identical fault plan at each (rate,
// replication) cell: attempt fates are a pure function of (seed, task ID,
// attempt), so the comparison isolates the recovery policies.
var runFaultSweep = figure("faults", "Effect of task failure rate: MRCP-RM vs MinEDF-WC",
	func(opts Options) ([]cell, error) {
		var cells []cell
		for _, rate := range FailureRates {
			for _, policy := range comparedPolicies {
				c := synthetic(opts, workload.DefaultSynthetic(), opts.Jobs, fmt.Sprintf("failrate=%g", rate), rate)
				c.policy = policy
				c.faults = &faults.Config{TaskFailureProb: rate}
				cells = append(cells, c)
			}
		}
		return cells, nil
	})
