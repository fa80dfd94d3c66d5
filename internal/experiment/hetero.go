package experiment

import (
	"fmt"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// heteroCluster materializes the workload's cluster shape as a two-class
// speed profile.
func heteroCluster(cfg workload.SyntheticConfig, spread float64) (sim.Cluster, error) {
	return core.TwoClassSpec(cfg.NumResources, cfg.MapSlotsPerResource,
		cfg.ReduceSlotsPerResource, spread).Cluster()
}

// SpeedSpreads are the machine speed spreads swept by the heterogeneity
// experiment: the cluster's second half runs at 1/spread speed. 1 is the
// uniform control, run through the same two-class builder.
var SpeedSpreads = []float64{1, 2, 4}

// runHeteroSweep measures what speed-aware planning buys on a two-class
// cluster. At each spread the identical workload runs under MRCP-RM twice:
// once planning with the true per-machine speeds (per-(task,resource)
// durations in the CP model) and once speed-blind — the solver assumes
// every machine runs at full speed, exactly the uniform-slot model the
// paper's Section IV uses, and discovers the slowdown only when tasks
// overrun on the simulated cluster. The gap in late jobs is the value of
// the heterogeneous model; at spread 1 the two configurations are the same
// planner and must produce identical points.
func runHeteroSweep(opts Options) (Result, error) {
	started := time.Now()
	r := Result{ID: "hetero", Title: "Effect of machine speed heterogeneity: speed-aware vs speed-blind planning"}
	cfg := workload.DefaultSynthetic()
	for _, spread := range SpeedSpreads {
		cluster, err := heteroCluster(cfg, spread)
		if err != nil {
			return r, err
		}
		for _, blind := range []bool{false, true} {
			// The manager plans on the cluster it is handed; the simulator
			// always runs the true one. Speed-blind is a plan without speeds.
			plan := cluster
			if blind {
				plan.Speed = nil
			}
			point, err := runReplications(opts, func(rep int, rng *stats.Stream) (*sim.Metrics, error) {
				jobs, err := cfg.Generate(opts.Jobs, rng)
				if err != nil {
					return nil, err
				}
				rm, err := opts.newManager("mrcp", plan)
				if err != nil {
					return nil, err
				}
				s, err := sim.New(cluster, rm, jobs)
				if err != nil {
					return nil, err
				}
				opts.instrument(s)
				return s.Run()
			})
			if err != nil {
				return r, err
			}
			point.Factor = fmt.Sprintf("spread=%g", spread)
			point.FactorValue = spread
			point.Manager = "MRCP-RM"
			if blind {
				point.Manager = "speed-blind"
			}
			r.Points = append(r.Points, point)
		}
	}
	r.Elapsed = time.Since(started)
	return r, nil
}
