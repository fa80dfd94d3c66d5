package core

import (
	"testing"
	"time"

	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// --- drain ---

// TestDrainWithRunningTasks: Drain force-admits a Section V.E-deferred job
// while other tasks are mid-execution, and the run then completes without
// waiting for the parked timer.
func TestDrainWithRunningTasks(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	cfg := deterministicConfig()
	cfg.DeferralLead = 10 * time.Second
	jobs := []*workload.Job{
		mkJob(0, 0, 0, 32_000, []int64{30_000}, nil),
		mkJob(1, 1000, 100_000, 400_000, []int64{5_000}, nil), // deferred (far-future start)
		mkJob(2, 2000, 2000, 300_000, []int64{5_000}, nil),
	}

	mgr := New(cluster, cfg)
	s, err := sim.New(cluster, mgr, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Step until job 2's arrival has been processed and job 0 is running.
	for {
		more, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			t.Fatal("run ended before drain point")
		}
		if s.Now() >= 2000 {
			break
		}
	}
	if !s.Status(jobs[0].MapTasks[0]).Started {
		t.Fatal("job 0 should be running at drain time")
	}
	if mgr.Stats().Deferred != 1 {
		t.Fatalf("deferred=%d, want 1", mgr.Stats().Deferred)
	}
	if mgr.Outstanding() != 3 {
		t.Fatalf("outstanding=%d, want 3", mgr.Outstanding())
	}

	if err := mgr.Drain(s); err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCompleted != 3 {
		t.Fatalf("completed %d, want 3", m.JobsCompleted)
	}
	if mgr.Outstanding() != 0 {
		t.Fatalf("outstanding=%d after drain+run", mgr.Outstanding())
	}
	// The force-admitted job still honors its earliest start time.
	for _, r := range m.Records {
		if r.Job.ID == 1 && r.Completion < 105_000 {
			t.Fatalf("deferred job completed at %d, before earliest start + exec", r.Completion)
		}
	}
}

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
