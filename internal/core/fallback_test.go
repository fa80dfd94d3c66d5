package core

import (
	"testing"

	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// strictManager returns a manager whose solves honour their budget even
// before a first solution exists (the strictLimits test hook).
func strictManager(cluster sim.Cluster, cfg Config) *Manager {
	mgr := New(cluster, cfg)
	mgr.strictLimits = true
	return mgr
}

// A CP solver failure must never terminate a run: the manager falls back to
// the greedy EDF placer and the simulation completes every job. StrictLimits
// plus a one-node budget guarantees every solve returns no solution.
func TestSolverFailureFallsBackToGreedy(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2}
	cfg := deterministicConfig()
	cfg.NodeLimit = 1
	var jobs []*workload.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, mkJob(i, int64(i)*1000, int64(i)*1000, 400_000,
			[]int64{4000, 3000}, []int64{5000}))
	}
	mgr := strictManager(cluster, cfg)
	m := runManager(t, cluster, mgr, jobs)
	st := mgr.Stats()
	if st.FallbackRounds == 0 {
		t.Fatal("expected greedy fallback rounds, solver succeeded under a 1-node strict budget")
	}
	if m.JobsCompleted != len(jobs) {
		t.Fatalf("completed %d of %d jobs under fallback", m.JobsCompleted, len(jobs))
	}
}

// The fallback places a workflow's tasks after their predecessors even when
// a map-pool task waits on a reduce-pool one; the simulator rejects any
// start before a predecessor completes.
func TestFallbackHonoursWorkflowPrecedence(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2}
	for _, mode := range []SolveMode{ModeCombined, ModeDirect} {
		cfg := deterministicConfig()
		cfg.Mode = mode
		cfg.NodeLimit = 1
		var jobs []*workload.Job
		for i := 0; i < 3; i++ {
			w := workload.NewWorkflow(i, int64(i)*1000, 400_000)
			w.Arrival = w.EarliestStart
			a := w.AddTask("a", workload.MapTask, 4_000)
			b := w.AddTask("b", workload.ReduceTask, 3_000)
			c := w.AddTask("c", workload.MapTask, 2_000)
			if err := w.Chain(a, b, c); err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, w)
		}
		mgr := strictManager(cluster, cfg)
		m := runManager(t, cluster, mgr, jobs)
		if mgr.Stats().FallbackRounds == 0 {
			t.Fatalf("%v: expected greedy fallback rounds", mode)
		}
		if m.JobsCompleted != len(jobs) {
			t.Fatalf("%v: completed %d of %d workflows", mode, m.JobsCompleted, len(jobs))
		}
	}
}

// Same property for the direct formulation, whose fallback path places on
// per-resource demand profiles rather than the unit-slot matchmaker.
func TestSolverFailureFallbackDirectMode(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2}
	cfg := deterministicConfig()
	cfg.Mode = ModeDirect
	cfg.NodeLimit = 1
	var jobs []*workload.Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, mkJob(i, int64(i)*2000, int64(i)*2000, 400_000,
			[]int64{4000}, []int64{3000}))
	}
	mgr := strictManager(cluster, cfg)
	m := runManager(t, cluster, mgr, jobs)
	if mgr.Stats().FallbackRounds == 0 {
		t.Fatal("expected greedy fallback rounds in direct mode")
	}
	if m.JobsCompleted != len(jobs) {
		t.Fatalf("completed %d of %d jobs", m.JobsCompleted, len(jobs))
	}
}
