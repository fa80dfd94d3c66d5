package experiment

import (
	"fmt"
	"time"

	"mrcprm/internal/faults"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// FailureRates are the injected per-attempt task failure probabilities
// swept by the robustness experiment (0% is the fault-free control, run
// through the same injector code path).
var FailureRates = []float64{0, 0.02, 0.05, 0.10}

// runFaultSweep compares the configured policies (MRCP-RM vs MinEDF-WC by
// default) on the default Table 3 workload while a seeded injector fails a
// growing fraction of task attempts. Every policy faces the identical fault
// plan at each (rate, replication) cell: attempt fates are a pure function
// of (seed, task ID, attempt), so the comparison isolates the recovery
// policies.
func runFaultSweep(opts Options) (Result, error) {
	started := time.Now()
	r := Result{ID: "faults", Title: "Effect of task failure rate: MRCP-RM vs MinEDF-WC"}
	cfg := workload.DefaultSynthetic()
	cluster := sim.Cluster{
		NumResources: cfg.NumResources,
		MapSlots:     cfg.MapSlotsPerResource,
		ReduceSlots:  cfg.ReduceSlotsPerResource,
	}
	for _, rate := range FailureRates {
		for _, policy := range comparedPolicies {
			probe, err := opts.newManager(policy, cluster)
			if err != nil {
				return r, err
			}
			point, err := runReplications(opts, func(rep int, rng *stats.Stream) (*sim.Metrics, error) {
				jobs, err := cfg.Generate(opts.Jobs, rng)
				if err != nil {
					return nil, err
				}
				rm, err := opts.newManager(policy, cluster)
				if err != nil {
					return nil, err
				}
				s, err := sim.New(cluster, rm, jobs)
				if err != nil {
					return nil, err
				}
				// Seeded per (master seed, replication) only, so every
				// policy draws the same fault plan.
				plan, err := faults.New(faults.Config{
					TaskFailureProb: rate,
					Seed1:           opts.Seed,
					Seed2:           0xfa1157 + uint64(rep),
				})
				if err != nil {
					return nil, err
				}
				if err := s.SetFaultInjector(plan); err != nil {
					return nil, err
				}
				opts.instrument(s)
				return s.Run()
			})
			if err != nil {
				return r, err
			}
			point.Factor = fmt.Sprintf("failrate=%g", rate)
			point.FactorValue = rate
			point.Manager = probe.Name()
			r.Points = append(r.Points, point)
		}
	}
	r.Elapsed = time.Since(started)
	return r, nil
}
