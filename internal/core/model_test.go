package core

import (
	"strings"
	"testing"

	"mrcprm/internal/cp"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

func TestCombinedModeRejectsNonUnitDemand(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2}
	j := mkJob(0, 0, 0, 100_000, []int64{5000}, nil)
	j.MapTasks[0].Req = 2
	w := &jobWork{job: j, pendingMaps: j.MapTasks}
	_, err := new(round).buildModel(ModeCombined, 0, cluster, []*jobWork{w}, nil)
	if err == nil || !strings.Contains(err.Error(), "unit demands") {
		t.Fatalf("expected unit-demand error, got %v", err)
	}
}

func TestDirectModeAcceptsWideDemand(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 3, ReduceSlots: 1}
	j := mkJob(0, 0, 0, 1_000_000, []int64{5000, 5000}, nil)
	j.MapTasks[0].Req = 2 // takes 2 of 3 map slots on its resource
	cfg := deterministicConfig()
	cfg.Mode = ModeDirect
	sched, err := SolveBatch(cluster, []*workload.Job{j}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(cluster); err != nil {
		t.Fatal(err)
	}
}

func TestBuildModelFrozenBeyondNominalHorizonAccepted(t *testing.T) {
	// A straggler-slowed frozen attempt can end far past the fault-free
	// horizon; the model must extend the horizon rather than reject it.
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	j := mkJob(0, 0, 0, 1_000, []int64{5000}, nil)
	far := int64(1) << 50
	w := &jobWork{job: j, frozenMaps: []frozenTask{
		{task: j.MapTasks[0], res: 0, start: far, exec: 15_000},
	}}
	bm, err := new(round).buildModel(ModeCombined, 0, cluster, []*jobWork{w}, nil)
	if err != nil {
		t.Fatalf("frozen task beyond nominal horizon rejected: %v", err)
	}
	iv := bm.tasks[0].iv
	if got := bm.model.StartMin(iv); got != far {
		t.Fatalf("frozen start %d, want pinned at %d", got, far)
	}
}

func TestBuildModelTerminalsWithoutReduces(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	j := mkJob(0, 0, 0, 4_000, []int64{5000}, nil) // impossible deadline
	w := &jobWork{job: j, pendingMaps: j.MapTasks}
	bm, err := new(round).buildModel(ModeCombined, 0, cluster, []*jobWork{w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The deadline is impossible, so the job's lateness indicator is the
	// objective's one late job; without the indicator it would read 0.
	if res := cp.NewSolver(bm.model, cp.Params{NodeLimit: 100}).Solve(); res.Objective != 1 {
		t.Fatalf("map-only job should still get a lateness indicator, objective %d", res.Objective)
	}
}

func TestBuildModelAdvancesStaleEarliestStarts(t *testing.T) {
	// Table 2 lines 1-4: a job whose s_j has passed is schedulable from now.
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	j := mkJob(0, 0, 1_000, 1_000_000, []int64{5000}, nil)
	w := &jobWork{job: j, pendingMaps: j.MapTasks}
	now := int64(50_000)
	bm, err := new(round).buildModel(ModeCombined, now, cluster, []*jobWork{w}, nil)
	if err != nil {
		t.Fatal(err)
	}
	iv := bm.tasks[0].iv
	if got := bm.model.StartMin(iv); got != now {
		t.Fatalf("startMin %d, want now=%d", got, now)
	}
}
