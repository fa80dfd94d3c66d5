package experiment

import (
	"fmt"

	"mrcprm/internal/core"
	"mrcprm/internal/workload"
)

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
var runHeteroSweep = figure("hetero", "Effect of machine speed heterogeneity: speed-aware vs speed-blind planning",
	func(opts Options) ([]cell, error) {
		cfg := workload.DefaultSynthetic()
		var cells []cell
		for _, spread := range SpeedSpreads {
			cluster, err := core.TwoClassSpec(cfg.NumResources, cfg.MapSlotsPerResource,
				cfg.ReduceSlotsPerResource, spread).Cluster()
			if err != nil {
				return nil, err
			}
			for _, blind := range []bool{false, true} {
				c := synthetic(opts, cfg, opts.Jobs, fmt.Sprintf("spread=%g", spread), spread)
				c.cluster, c.plan = cluster, cluster
				if blind {
					// Speed-blind is a plan without speeds; the simulator
					// still runs the true cluster.
					c.plan.Speed = nil
					c.manager = "speed-blind"
				}
				cells = append(cells, c)
			}
		}
		return cells, nil
	})
