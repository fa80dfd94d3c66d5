package core

import (
	"testing"

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
	if at := tl.earliestFitAfter(0, 10); at != 0 {
		t.Fatalf("earliestFitAfter(0,10) = %d, want 0 ([0,10) touches nothing)", at)
	}
	if at := tl.earliestFitAfter(5, 10); at != 20 {
		t.Fatalf("earliestFitAfter(5,10) = %d, want 20 (jump past [10,20))", at)
	}
	if at := tl.earliestFitAfter(0, 5); at != 0 {
		t.Fatalf("earliestFitAfter(0,5) = %d, want 0", at)
	}
	if at := tl.earliestFitAfter(35, 10); at != 40 {
		t.Fatalf("earliestFitAfter(35,10) = %d, want 40", at)
	}
}

func TestMatchmakerBestGapChoice(t *testing.T) {
	var st Stats
	mk := newMatchmaker(2, 1, 1, &st) // 2 resources, 1 map slot each
	// Slot 0 busy [2,10), slot 1 busy [5,8): placing at 11 leaves gap 1 on
	// slot 0 and gap 3 on slot 1 — the paper's example prefers slot 0.
	mk.mapSlots[0].insert(2, 10)
	mk.mapSlots[1].insert(5, 8)
	task := &workload.Task{ID: "t", JobID: 0, Type: workload.MapTask, Exec: 4, Req: 1}
	a := mk.place(task, 11, false)
	if a.slot != 0 || a.start != 11 {
		t.Fatalf("placed on slot %d at %d, want slot 0 at 11", a.slot, a.start)
	}
	if st.Slips != 0 {
		t.Fatal("no slip expected")
	}
}

func TestMatchmakerSlipFallback(t *testing.T) {
	var st Stats
	mk := newMatchmaker(1, 1, 1, &st)
	mk.mapSlots[0].insert(0, 100)
	task := &workload.Task{ID: "t", JobID: 0, Type: workload.MapTask, Exec: 10, Req: 1}
	a := mk.place(task, 50, false) // no room until 100
	if a.start != 100 {
		t.Fatalf("slipped start %d, want 100", a.start)
	}
	if st.Slips != 1 || st.SlipMS != 50 {
		t.Fatalf("slip stats %+v", st)
	}
}

func TestMatchmakerReduceWaitsForSlippedMaps(t *testing.T) {
	var st Stats
	mk := newMatchmaker(1, 1, 1, &st)
	mk.mapSlots[0].insert(0, 100) // pinned blocker
	mapTask := &workload.Task{ID: "m", JobID: 7, Type: workload.MapTask, Exec: 10, Req: 1}
	redTask := &workload.Task{ID: "r", JobID: 7, Type: workload.ReduceTask, Exec: 5, Req: 1}
	am := mk.place(mapTask, 50, false) // slips to 100, ends 110
	if am.start != 100 {
		t.Fatalf("map start %d", am.start)
	}
	ar := mk.place(redTask, 60, false) // CP said 60, but the map now ends at 110
	if ar.start != 110 {
		t.Fatalf("reduce start %d, want 110 (after slipped map)", ar.start)
	}
}

func TestMatchmakerPinnedTasksBlockSlots(t *testing.T) {
	var st Stats
	mk := newMatchmaker(1, 2, 1, &st) // one resource, two map slots
	running := &workload.Task{ID: "run", JobID: 1, Type: workload.MapTask, Exec: 100, Req: 1}
	mk.pin(running, 0, 0, running.Exec) // unit slot 0 busy [0,100)
	task := &workload.Task{ID: "new", JobID: 2, Type: workload.MapTask, Exec: 50, Req: 1}
	a := mk.place(task, 0, false)
	if a.slot != 1 || a.start != 0 {
		t.Fatalf("placed slot %d at %d, want free slot 1 at 0", a.slot, a.start)
	}
	// Both unit slots belong to resource 0.
	if a.res != 0 {
		t.Fatalf("resource %d", a.res)
	}
}
