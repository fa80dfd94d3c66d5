package experiment

import (
	"fmt"

	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// FacebookRates are the arrival rates compared in Figs 2 and 3.
var FacebookRates = []float64{0.0001, 0.0002, 0.0003, 0.0004, 0.0005}

// runFacebookComparison regenerates Figs 2 and 3 in one sweep: every
// compared policy (MRCP-RM vs MinEDF-WC) over the Table 4 workload at each
// arrival rate. Fig 2 reads the P column, Fig 3 the T column.
var runFacebookComparison = figure("fig2+fig3", "MRCP-RM vs MinEDF-WC on the Facebook workload",
	func(opts Options) ([]cell, error) {
		var cells []cell
		for _, lambda := range FacebookRates {
			fb := workload.FacebookConfig{
				NumJobs:      opts.FacebookJobs,
				Lambda:       lambda,
				DeadlineUL:   2,
				NumResources: 64,
			}
			cluster := sim.Cluster{NumResources: fb.NumResources, MapSlots: 1, ReduceSlots: 1}
			for _, policy := range comparedPolicies {
				cells = append(cells, cell{factor: fmt.Sprintf("lambda=%g", lambda), value: lambda,
					policy: policy, config: opts.ManagerConfig, cluster: cluster, plan: cluster, jobs: fb.Generate})
			}
		}
		return cells, nil
	})
