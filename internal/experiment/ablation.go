package experiment

import (
	"fmt"

	"mrcprm/internal/core"
	"mrcprm/internal/workload"
)

// runAblationMatchmaking quantifies the Section V.D claim: solving on a
// single combined resource followed by gap-based matchmaking is much
// cheaper than modelling matchmaking inside the CP program. Run on a small
// system so the direct mode stays tractable.
var runAblationMatchmaking = figure("ablation-matchmaking", "Combined + matchmaking vs direct CP matchmaking",
	func(opts Options) ([]cell, error) {
		cfg := workload.DefaultSynthetic()
		cfg.NumResources = 8
		cfg.NumMapHi = 20
		cfg.NumReduceHi = 10
		cfg.Lambda = 0.02
		var cells []cell
		for _, mode := range []core.SolveMode{core.ModeCombined, core.ModeDirect} {
			// Direct mode is the expensive arm; cap the replication size.
			c := synthetic(opts, cfg, min(opts.Jobs, 60), "mode="+mode.String(), 0)
			c.config.Mode = mode
			cells = append(cells, c)
		}
		return cells, nil
	})

// runAblationDeferral quantifies the Section V.E claim: with many
// far-future advance reservations (high p, large smax), deferring jobs
// until their earliest start time approaches reduces the model size and
// hence the overhead O.
var runAblationDeferral = figure("ablation-deferral", "Far-future job deferral on vs off",
	func(opts Options) ([]cell, error) {
		cfg := workload.DefaultSynthetic()
		cfg.P = 0.9
		cfg.SmaxSec = 250000
		var cells []cell
		for _, deferral := range []bool{true, false} {
			// The no-deferral arm re-schedules every parked job on every
			// solve — the very overhead this ablation measures — so its
			// cost grows superlinearly in the job count; cap the
			// replication size.
			c := synthetic(opts, cfg, min(opts.Jobs, 100), fmt.Sprintf("deferral=%v", deferral), 0)
			if !deferral {
				c.config.DeferralLead = 0
			}
			cells = append(cells, c)
		}
		return cells, nil
	})
