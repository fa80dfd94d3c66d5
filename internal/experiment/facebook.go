package experiment

import (
	"fmt"
	"time"

	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// FacebookRates are the arrival rates compared in Figs 2 and 3.
var FacebookRates = []float64{0.0001, 0.0002, 0.0003, 0.0004, 0.0005}

// runFacebookComparison regenerates Figs 2 and 3 in one sweep: every
// compared policy (MRCP-RM vs MinEDF-WC by default) over the Table 4
// workload at each arrival rate. Fig 2 reads the P column, Fig 3 the T
// column.
func runFacebookComparison(opts Options) (Result, error) {
	started := time.Now()
	r := Result{ID: "fig2+fig3", Title: "MRCP-RM vs MinEDF-WC on the Facebook workload"}
	for _, lambda := range FacebookRates {
		fb := workload.FacebookConfig{
			NumJobs:      opts.FacebookJobs,
			Lambda:       lambda,
			DeadlineUL:   2,
			NumResources: 64,
		}
		cluster := sim.Cluster{NumResources: fb.NumResources, MapSlots: 1, ReduceSlots: 1}
		for _, policy := range comparedPolicies {
			probe, err := opts.newManager(policy, cluster)
			if err != nil {
				return r, err
			}
			point, err := runReplications(opts, func(rep int, rng *stats.Stream) (*sim.Metrics, error) {
				jobs, err := fb.Generate(rng)
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
				opts.instrument(s, rm)
				return s.Run()
			})
			if err != nil {
				return r, err
			}
			point.Factor = fmt.Sprintf("lambda=%g", lambda)
			point.FactorValue = lambda
			point.Manager = probe.Name()
			r.Points = append(r.Points, point)
		}
	}
	r.Elapsed = time.Since(started)
	return r, nil
}
