package core

import (
	"testing"
	"time"

	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// --- rolling horizon ---

// A slack-rich job (latest feasible start far beyond now+window) must be
// window-parked at arrival, admitted by the timer with a full window of
// SLA slack left, and still complete on time.
func TestHorizonWindowParksSlackRichJob(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	cfg := deterministicConfig()
	cfg.DeferralLead = 0
	cfg.HorizonWindow = 60 * time.Second

	// Min exec 9s, deadline at 600s: lfs ≈ 591_000 >> 0 + 60_000.
	j := mkJob(0, 1000, 1000, 600_000, []int64{4000, 4000}, []int64{5000})
	lfs := j.Deadline - SLALowerBound(cluster, j)

	mgr := New(cluster, cfg)
	s, err := sim.New(cluster, mgr, []*workload.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().WindowParked; got != 1 {
		t.Fatalf("WindowParked = %d, want 1", got)
	}
	if mgr.Stats().Deferred != 0 {
		t.Fatalf("Deferred = %d, want 0 (lead disabled)", mgr.Stats().Deferred)
	}
	done, ok := s.JobDone(j)
	if !ok || done > j.Deadline {
		t.Fatalf("job done at %d (ok=%v), deadline %d", done, ok, j.Deadline)
	}
	if m.LateJobs != 0 {
		t.Fatalf("late jobs = %d, want 0", m.LateJobs)
	}
	// The job cannot have started before its window admission: its first
	// task start is at or after lfs - window.
	if start := done - 9000; start < lfs-cfg.HorizonWindow.Milliseconds() {
		t.Fatalf("job finished at %d — ran before the horizon admitted it (admit at %d)",
			done, lfs-cfg.HorizonWindow.Milliseconds())
	}
}

// Deferral and horizon compose: when both would park a job, the later
// release wins, and a job parked only by one mechanism is counted there.
func TestHorizonAndDeferralInteraction(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	cfg := deterministicConfig()
	cfg.DeferralLead = 10 * time.Second
	cfg.HorizonWindow = 30 * time.Second

	// Far-future earliest start AND slack-rich deadline. Deferral release
	// = ES - lead = 190s; horizon release = lfs - window ≈ 561s. The
	// horizon release is later and must win.
	j := mkJob(0, 0, 200_000, 600_000, []int64{4000, 4000}, []int64{5000})
	mgr := New(cluster, cfg)
	lfs := j.Deadline - SLALowerBound(cluster, j)
	if until := mgr.parkedUntil(0, j); until != lfs-cfg.HorizonWindow.Milliseconds() {
		t.Fatalf("parkedUntil = %d, want horizon release %d", until, lfs-30_000)
	}

	// Tight deadline, far-future start: only deferral parks it.
	j2 := mkJob(1, 0, 200_000, 215_000, []int64{4000, 4000}, []int64{5000})
	if until := mgr.parkedUntil(0, j2); until != 190_000 {
		t.Fatalf("parkedUntil = %d, want deferral release 190000", until)
	}

	// Imminent job: parked by neither.
	j3 := mkJob(2, 0, 1000, 30_000, []int64{4000, 4000}, []int64{5000})
	if until := mgr.parkedUntil(0, j3); until != 0 {
		t.Fatalf("parkedUntil = %d, want 0", until)
	}
}

// Drain must force-admit window-parked jobs, not just deferral-parked
// ones: a draining engine cannot wait hours for a horizon timer.
func TestDrainForceAdmitsWindowParked(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	cfg := deterministicConfig()
	cfg.DeferralLead = 0
	cfg.HorizonWindow = 60 * time.Second

	j := mkJob(0, 1000, 1000, 600_000, []int64{4000, 4000}, []int64{5000})
	mgr := New(cluster, cfg)
	s, err := sim.New(cluster, mgr, []*workload.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	// Step the arrival event only: the job is now parked.
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().WindowParked != 1 || mgr.Outstanding() != 1 {
		t.Fatalf("after arrival: WindowParked=%d Outstanding=%d, want 1/1",
			mgr.Stats().WindowParked, mgr.Outstanding())
	}
	if err := mgr.Drain(s); err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	done, ok := s.JobDone(j)
	if !ok {
		t.Fatal("job did not complete after drain")
	}
	// Drained work starts immediately instead of waiting for the horizon.
	if done > 60_000 {
		t.Fatalf("job done at %d — drain did not force-admit it", done)
	}
	if m.JobsCompleted != 1 {
		t.Fatalf("completed %d, want 1", m.JobsCompleted)
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
