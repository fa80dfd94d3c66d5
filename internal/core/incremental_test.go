package core

import (
	"testing"

	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// --- determinism fingerprints ---

// incrementalWorkload is a contested stream: enough load that schedules
// are nontrivial, with staggered deadlines and a mid-stream burst.
func incrementalWorkload() []*workload.Job {
	var jobs []*workload.Job
	for i := 0; i < 12; i++ {
		arrival := int64(i * 3000)
		deadline := arrival + 40_000 + int64(i%4)*20_000
		jobs = append(jobs, mkJob(i, arrival, arrival, deadline,
			[]int64{4000 + int64(i%3)*2000, 6000}, []int64{5000}))
	}
	return jobs
}

func fingerprintWith(t *testing.T, mutate func(*Config)) uint64 {
	t.Helper()
	cluster := sim.Cluster{NumResources: 3, MapSlots: 2, ReduceSlots: 2}
	cfg := DeterministicConfig()
	mutate(&cfg)
	mgr := New(cluster, cfg)
	s, err := sim.New(cluster, mgr, incrementalWorkload())
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m.Fingerprint()
}

// Warm-starting is a policy change (it may pick different, equally valid
// schedules than cold solving) but must be self-consistent: two warm runs
// over the same stream produce identical fingerprints.
func TestWarmStartSelfConsistent(t *testing.T) {
	a := fingerprintWith(t, func(c *Config) { c.WarmStart = true })
	b := fingerprintWith(t, func(c *Config) { c.WarmStart = true })
	if a != b {
		t.Fatalf("warm-start fingerprint unstable: %x vs %x", a, b)
	}
}

// Warm-start bookkeeping: a second reschedule over installed placements
// must be hinted and seeded.
func TestWarmStartSeedsSecondReschedule(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	cfg := DeterministicConfig()
	cfg.WarmStart = true

	jobs := []*workload.Job{
		mkJob(0, 1000, 1000, 60_000, []int64{4000, 4000}, []int64{5000}),
		mkJob(1, 2000, 2000, 80_000, []int64{3000}, []int64{2000}),
	}
	mgr := New(cluster, cfg)
	s, err := sim.New(cluster, mgr, jobs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	// First arrival has no installed placements to hint from; the second
	// reschedule does.
	if st.WarmStartRounds == 0 || st.WarmStartSeeded == 0 {
		t.Fatalf("warm-start never engaged: hinted=%d seeded=%d", st.WarmStartRounds, st.WarmStartSeeded)
	}
	if m.JobsCompleted != 2 {
		t.Fatalf("completed %d, want 2", m.JobsCompleted)
	}
}

// Warm starts must pay for themselves in search effort, not just engage:
// on a standing backlog (Table 3 at lambda=0.03) every hinted solve seeds
// its incumbent and the run spends at most half the cold run's nodes.
// Node counts are deterministic, so this holds on any host.
func TestWarmBeatsColdOnBacklog(t *testing.T) {
	gen := workload.DefaultSynthetic()
	gen.Lambda = 0.03
	cluster := sim.Cluster{NumResources: gen.NumResources,
		MapSlots: gen.MapSlotsPerResource, ReduceSlots: gen.ReduceSlotsPerResource}
	run := func(warm bool) Stats {
		jobs, err := gen.Generate(120, stats.NewStream(1, 0xbe02))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DeterministicConfig()
		cfg.NodeLimit = 2000
		cfg.WarmStart = warm
		mgr := New(cluster, cfg)
		s, err := sim.New(cluster, mgr, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return mgr.Stats()
	}
	cold, warm := run(false), run(true)
	if warm.WarmStartRounds == 0 || warm.WarmStartSeeded != warm.WarmStartRounds {
		t.Fatalf("hinted=%d seeded=%d, want every hinted solve seeded",
			warm.WarmStartRounds, warm.WarmStartSeeded)
	}
	if 2*warm.SolverNodes > cold.SolverNodes {
		t.Fatalf("warm run used %d nodes, cold %d; want at most half",
			warm.SolverNodes, cold.SolverNodes)
	}
}
