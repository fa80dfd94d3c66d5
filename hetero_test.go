package mrcprm_test

import (
	"testing"

	"mrcprm"
)

// Heterogeneity integration tests, exercised through the public API: the
// feature-off path must be bit-identical no matter how "uniform" is
// spelled, and the feature-on path must beat speed-blind planning.

// explicitSpeeds returns the same cluster with an explicit all-1.0 speed
// vector — semantically identical to the nil (uniform) representation.
func explicitSpeeds(c mrcprm.Cluster) mrcprm.Cluster {
	c.Speed = make([]float64, c.NumResources)
	for i := range c.Speed {
		c.Speed[i] = 1.0
	}
	return c
}

// planningView is the cluster a manager is handed to plan on: the true one,
// or — the speed-blind ablation — a copy without its speed factors. The
// simulator always runs the true cluster.
func planningView(c mrcprm.Cluster, blind bool) mrcprm.Cluster {
	if blind {
		c.Speed = nil
	}
	return c
}

// deterministicMRCP builds the pinned-fingerprint MRCP-RM configuration
// with warm starts switched on, so the invariance holds on the richest
// code path.
func deterministicMRCP(cfg mrcprm.Config) mrcprm.Config {
	cfg.SolveTimeLimit = 0
	cfg.WarmStart = true
	return cfg
}

// Every registered policy, fault-free and under a fault plan, must produce
// a bit-identical run whether the uniform cluster carries a nil speed
// vector or an explicit all-1.0 one — the refactor's feature-off
// invariance, for every manager at once.
func TestUniformSpeedRepresentationInvariance(t *testing.T) {
	jobs, cluster := faultTestWorkload(t)
	plan, err := mrcprm.NewFaultPlan(mrcprm.FaultConfig{
		TaskFailureProb: 0.05,
		StragglerProb:   0.05,
		Seed1:           23, Seed2: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range mrcprm.PolicyNames() {
		for _, faulted := range []bool{false, true} {
			name := policy + "/plain"
			inj := mrcprm.FaultInjector(nil)
			if faulted {
				name = policy + "/faults"
				inj = plan
			}
			t.Run(name, func(t *testing.T) {
				run := func(c mrcprm.Cluster) uint64 {
					opts := mrcprm.PolicyOptions{}
					if policy == "mrcp" {
						opts.Extra = deterministicMRCP(mrcprm.DefaultConfig())
					}
					rm, err := mrcprm.NewPolicy(policy, c, opts)
					if err != nil {
						t.Fatal(err)
					}
					m, err := mrcprm.SimulateWithFaults(c, rm, jobs, inj)
					if err != nil {
						t.Fatal(err)
					}
					return m.Fingerprint()
				}
				nilSpeed := run(cluster)
				explicit := run(explicitSpeeds(cluster))
				if nilSpeed != explicit {
					t.Fatalf("fingerprint changed with the speed representation: nil %#x vs all-1.0 %#x",
						nilSpeed, explicit)
				}
			})
		}
	}
}

// On a uniform cluster, speed-blind planning strips a speed vector that is
// all 1.0 anyway: same plan, same run, same fingerprint.
func TestUniformSpeedBlindInvariance(t *testing.T) {
	jobs, cluster := faultTestWorkload(t)
	run := func(c mrcprm.Cluster, blind bool) uint64 {
		cfg := deterministicMRCP(mrcprm.DefaultConfig())
		m, err := mrcprm.Simulate(c, mrcprm.NewManager(planningView(c, blind), cfg), jobs)
		if err != nil {
			t.Fatal(err)
		}
		return m.Fingerprint()
	}
	base := run(cluster, false)
	for _, c := range []mrcprm.Cluster{cluster, explicitSpeeds(cluster)} {
		if got := run(c, true); got != base {
			t.Fatalf("speed-blind uniform run fingerprint %#x, want %#x", got, base)
		}
	}
}

// The sharded router must also be representation-blind: partitioning a
// uniform cluster with an explicit all-1.0 speed vector slices that vector
// per shard, and every per-shard run (and the combined fingerprint) stays
// bit-identical to the nil-speed partition.
func TestUniformShardRouterInvariance(t *testing.T) {
	wl := mrcprm.DefaultSyntheticWorkload()
	wl.NumResources = 3 // one shard's slice of the 6-resource cluster below
	wl.NumMapHi = 8
	wl.NumReduceHi = 4
	jobs, err := wl.Generate(12, mrcprm.NewStream(41, 0xfeed))
	if err != nil {
		t.Fatal(err)
	}
	run := func(c mrcprm.Cluster) uint64 {
		cfg := mrcprm.ShardConfig{
			Base: mrcprm.ServiceConfig{
				Cluster: c,
				Manager: mrcprm.DeterministicConfig(),
			},
			Shards: 2,
			Seed:   7,
		}
		r, err := mrcprm.NewShardRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if _, err := r.Submit(mrcprm.JobSpecOf(j)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		r.CloseIntake()
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		fps := make([]uint64, r.Shards())
		for s := range fps {
			m, err := r.Engine(s).Result()
			if err != nil {
				t.Fatal(err)
			}
			fps[s] = m.Fingerprint()
		}
		return mrcprm.CombineShardFingerprints(fps)
	}
	cluster := mrcprm.Cluster{NumResources: 6, MapSlots: 2, ReduceSlots: 2}
	nilSpeed := run(cluster)
	explicit := run(explicitSpeeds(cluster))
	if nilSpeed != explicit {
		t.Fatalf("sharded fingerprint changed with the speed representation: nil %#x vs all-1.0 %#x",
			nilSpeed, explicit)
	}
}

// On a two-class cluster, planning with the true machine speeds must beat
// planning speed-blind: no more late jobs at any spread, strictly fewer at
// a 2x spread. This is the acceptance experiment of the refactor in
// miniature (cmd/experiments -fig hetero sweeps the full grid).
func TestSpeedAwareBeatsSpeedBlind(t *testing.T) {
	wl := mrcprm.DefaultSyntheticWorkload()
	wl.NumResources = 10
	wl.NumMapHi = 20
	wl.NumReduceHi = 10
	wl.EmaxSec = 30
	wl.DeadlineUL = 2
	wl.Lambda = 0.02
	gen := func() []*mrcprm.Job {
		jobs, err := wl.Generate(40, mrcprm.NewStream(1, 0xbe7e))
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	run := func(spread float64, blind bool) *mrcprm.Metrics {
		spec := mrcprm.TwoClassCluster(wl.NumResources, wl.MapSlotsPerResource,
			wl.ReduceSlotsPerResource, spread)
		cluster, err := spec.Cluster()
		if err != nil {
			t.Fatal(err)
		}
		cfg := mrcprm.DeterministicConfig()
		m, err := mrcprm.Simulate(cluster, mrcprm.NewManager(planningView(cluster, blind), cfg), gen())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, spread := range []float64{2, 4} {
		aware := run(spread, false)
		blind := run(spread, true)
		if aware.LateJobs > blind.LateJobs {
			t.Errorf("spread %g: speed-aware %d late vs speed-blind %d — awareness made it worse",
				spread, aware.LateJobs, blind.LateJobs)
		}
		if aware.LateJobs >= blind.LateJobs {
			t.Errorf("spread %g: speed-aware %d late vs speed-blind %d, want strictly fewer",
				spread, aware.LateJobs, blind.LateJobs)
		}
		t.Logf("spread %g: aware late=%d T=%.1fs | blind late=%d T=%.1fs",
			spread, aware.LateJobs, aware.T(), blind.LateJobs, blind.T())
	}
	// spread 1 through the same builder is the uniform cluster: aware and
	// blind are the same planner and must agree bit for bit.
	if a, b := run(1, false), run(1, true); a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("uniform spread-1 runs differ: %#x vs %#x", a.Fingerprint(), b.Fingerprint())
	}
}
