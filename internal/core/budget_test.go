package core

import (
	"strings"
	"testing"

	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// runOneNodeBudget runs the jobs with a one-node search budget and checks
// that every reschedule installed a CP schedule: the solver always finishes
// its first descent, whatever the budget, so no round fails and every job
// completes (runManager checks the completions).
func runOneNodeBudget(t *testing.T, cluster sim.Cluster, cfg Config, jobs []*workload.Job) {
	t.Helper()
	cfg.NodeLimit = 1
	mgr := New(cluster, cfg)
	installed := 0
	mgr.SetRescheduleObserver(func(int64, string, bool) { installed++ })
	runManager(t, cluster, mgr, jobs)
	st := mgr.Stats()
	if st.Rounds == 0 || installed != st.Rounds {
		t.Fatalf("%v: %d of %d rounds installed a schedule", cfg.Mode, installed, st.Rounds)
	}
	// More nodes than rounds: the first descents ran past the budget.
	if st.SolverNodes <= int64(st.Rounds) {
		t.Fatalf("%v: %d nodes over %d rounds, want the first descents to overrun a one-node budget",
			cfg.Mode, st.SolverNodes, st.Rounds)
	}
}

func TestOneNodeBudgetCombinedMode(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2}
	var jobs []*workload.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, mkJob(i, int64(i)*1000, int64(i)*1000, 400_000,
			[]int64{4000, 3000}, []int64{5000}))
	}
	runOneNodeBudget(t, cluster, deterministicConfig(), jobs)
}

// The direct formulation reads resources straight off the solution rather
// than through the unit-slot matchmaker.
func TestOneNodeBudgetDirectMode(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2}
	cfg := deterministicConfig()
	cfg.Mode = ModeDirect
	var jobs []*workload.Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, mkJob(i, int64(i)*2000, int64(i)*2000, 400_000,
			[]int64{4000}, []int64{3000}))
	}
	runOneNodeBudget(t, cluster, cfg, jobs)
}

// A workflow whose map-pool task waits on a reduce-pool one runs in both
// formulations; the simulator rejects any start before a predecessor
// completes.
func TestOneNodeBudgetWorkflowPrecedence(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2}
	for _, mode := range []SolveMode{ModeCombined, ModeDirect} {
		cfg := deterministicConfig()
		cfg.Mode = mode
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
		runOneNodeBudget(t, cluster, cfg, jobs)
	}
}

// A solver panic comes back from solve as an error instead of unwinding
// the simulation; a model-less builtModel makes the solver panic.
func TestSolverPanicIsAnError(t *testing.T) {
	mgr := New(sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}, deterministicConfig())
	_, err := mgr.solve(&builtModel{}, nil)
	if err == nil || !strings.Contains(err.Error(), "core: CP solver panicked") {
		t.Fatalf("solve on a nil model returned %v, want a CP solver panic error", err)
	}
}
