package experiment

import (
	"fmt"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/workload"
)

// ablationArm runs one arm of an ablation: MRCP-RM under mcfg over gen's
// workload on gen's cluster, jobs per replication — a synthetic cell with
// the arm's manager configuration in place of the options'.
func ablationArm(opts Options, gen workload.SyntheticConfig, mcfg core.Config, jobs int, factor string) (Point, error) {
	opts.ManagerConfig = mcfg
	opts.Jobs = jobs
	return runSyntheticCell(opts, gen, factor, 0)
}

// runAblationMatchmaking quantifies the Section V.D claim: solving on a
// single combined resource followed by gap-based matchmaking is much
// cheaper than modelling matchmaking inside the CP program. Run on a small
// system so the direct mode stays tractable.
func runAblationMatchmaking(opts Options) (Result, error) {
	started := time.Now()
	r := Result{ID: "ablation-matchmaking", Title: "Combined + matchmaking vs direct CP matchmaking"}
	cfg := workload.DefaultSynthetic()
	cfg.NumResources = 8
	cfg.NumMapHi = 20
	cfg.NumReduceHi = 10
	cfg.Lambda = 0.02

	jobsPerRep := min(opts.Jobs, 60) // direct mode is the expensive arm
	for _, mode := range []core.SolveMode{core.ModeCombined, core.ModeDirect} {
		mcfg := opts.ManagerConfig
		mcfg.Mode = mode
		point, err := ablationArm(opts, cfg, mcfg, jobsPerRep, "mode="+mode.String())
		if err != nil {
			return r, err
		}
		r.Points = append(r.Points, point)
	}
	r.Elapsed = time.Since(started)
	return r, nil
}

// runAblationDeferral quantifies the Section V.E claim: with many
// far-future advance reservations (high p, large smax), deferring jobs
// until their earliest start time approaches reduces the model size and
// hence the overhead O.
func runAblationDeferral(opts Options) (Result, error) {
	started := time.Now()
	r := Result{ID: "ablation-deferral", Title: "Far-future job deferral on vs off"}
	cfg := workload.DefaultSynthetic()
	cfg.P = 0.9
	cfg.SmaxSec = 250000

	// The no-deferral arm re-schedules every parked job on every solve —
	// the very overhead this ablation measures — so its cost grows
	// superlinearly in the job count; cap the replication size.
	jobsPerRep := min(opts.Jobs, 100)
	for _, deferral := range []bool{true, false} {
		mcfg := opts.ManagerConfig
		if !deferral {
			mcfg.DeferralLead = 0
		}
		point, err := ablationArm(opts, cfg, mcfg, jobsPerRep, fmt.Sprintf("deferral=%v", deferral))
		if err != nil {
			return r, err
		}
		r.Points = append(r.Points, point)
	}
	r.Elapsed = time.Since(started)
	return r, nil
}
