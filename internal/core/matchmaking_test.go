package core

import (
	"strings"
	"testing"

	"mrcprm/internal/cp"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

func TestSlotTimelineOps(t *testing.T) {
	var tl slotTimeline
	tl.insert(10, 20)
	tl.insert(30, 40)
	if !tl.fits(20, 30) {
		t.Fatal("exact gap should fit")
	}
	if tl.fits(15, 25) || tl.fits(5, 11) || tl.fits(39, 41) {
		t.Fatal("overlaps should not fit")
	}
	if g := tl.gapBefore(30); g != 10 {
		t.Fatalf("gapBefore(30) = %d, want 10", g)
	}
	if g := tl.gapBefore(5); g != 5 {
		t.Fatalf("gapBefore(5) = %d, want 5 (empty prefix)", g)
	}
}

func TestMatchmakerBestGapChoice(t *testing.T) {
	mk := newMatchmaker(2, 1, 1) // 2 resources, 1 map slot each
	// Slot 0 busy [2,10), slot 1 busy [5,8): placing at 11 leaves gap 1 on
	// slot 0 and gap 3 on slot 1 — the paper's example prefers slot 0.
	mk.mapSlots[0].insert(2, 10)
	mk.mapSlots[1].insert(5, 8)
	task := &workload.Task{ID: "t", JobID: 0, Type: workload.MapTask, Exec: 4, Req: 1}
	a, err := mk.place(task, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.slot != 0 || a.start != 11 {
		t.Fatalf("placed on slot %d at %d, want slot 0 at 11", a.slot, a.start)
	}
}

// A slot state the combined cumulative forbids — every unit slot busy at a
// task's CP start — is an invariant violation: placements names the task
// and the time and returns no placements, instead of delaying the task.
func TestPlacementsRejectOverfullSlots(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	j := &workload.Job{ID: 0, Deadline: 10_000}
	j.MapTasks = []*workload.Task{{ID: "m0", JobID: 0, Type: workload.MapTask, Exec: 1000, Req: 1}}
	work := []*jobWork{{job: j, pendingMaps: j.MapTasks}}
	bm, err := new(round).buildModel(ModeCombined, 0, cluster, work, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := cp.NewSolver(bm.model, cp.Params{NodeLimit: 100}).Solve()
	if !res.HasSolution() || res.Starts[0] != 0 {
		t.Fatalf("want m0 at 0, got status %v starts %v", res.Status, res.Starts)
	}
	mk := newMatchmaker(1, 1, 1)
	mk.mapSlots[0].insert(0, 500) // a running task the cumulative never saw
	placed, err := bm.placements(&res, mk)
	if err == nil || !strings.Contains(err.Error(), "task m0 has no free unit slot at 0") {
		t.Fatalf("placements error %v, want the invariant error for m0 at 0", err)
	}
	if placed != nil {
		t.Fatalf("placements returned %d placements with the error", len(placed))
	}
}

func TestMatchmakerPinnedTasksBlockSlots(t *testing.T) {
	mk := newMatchmaker(1, 2, 1) // one resource, two map slots
	running := &workload.Task{ID: "run", JobID: 1, Type: workload.MapTask, Exec: 100, Req: 1}
	mk.pin(running, 0, 0, running.Exec) // unit slot 0 busy [0,100)
	task := &workload.Task{ID: "new", JobID: 2, Type: workload.MapTask, Exec: 50, Req: 1}
	a, err := mk.place(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.slot != 1 || a.start != 0 {
		t.Fatalf("placed slot %d at %d, want free slot 1 at 0", a.slot, a.start)
	}
	// Both unit slots belong to resource 0.
	if a.res != 0 {
		t.Fatalf("resource %d", a.res)
	}
}
