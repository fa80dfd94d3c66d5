package core

import (
	"slices"
	"strings"
	"testing"

	"mrcprm/internal/cp"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

func newMatchmaker(numRes int, mapPerRes, redPerRes int64) *matchmaker {
	mk := new(matchmaker)
	mk.reset(numRes, mapPerRes, redPerRes)
	return mk
}

// A slot is its free time: a task fits where the free time is at or before
// its start, and goes to the largest such free time, the lowest slot on
// ties. Pins take the first unpinned slot of their resource, a blocked
// resource takes nothing, and a resource with more running tasks than
// slots is an invariant error.
func TestMatchmakerFreeTimeRule(t *testing.T) {
	task := func(id string, typ workload.TaskType, exec int64) *workload.Task {
		return &workload.Task{ID: id, Type: typ, Exec: exec, Req: 1}
	}
	mk := newMatchmaker(3, 2, 1) // resources 0-2: map slots 0-1, 2-3, 4-5
	if err := mk.pin(task("run0", workload.MapTask, 90), 1, 0, 90); err != nil {
		t.Fatal(err)
	}
	if err := mk.pin(task("run1", workload.MapTask, 50), 1, 10, 50); err != nil {
		t.Fatal(err)
	}
	if got := mk.mapFree[2:4]; got[0] != 90 || got[1] != 60 {
		t.Fatalf("resource 1's map slots free at %v, want [90 60]", got)
	}
	if err := mk.pin(task("run2", workload.MapTask, 5), 1, 0, 5); err == nil ||
		!strings.Contains(err.Error(), "run2 finds no unpinned unit slot on resource 1") {
		t.Fatalf("third running map on two slots: error %v", err)
	}
	mk.blockResource(0)
	if err := mk.pin(task("run3", workload.ReduceTask, 5), 0, 0, 5); err == nil {
		t.Fatal("a running task pinned on a blocked resource")
	}
	// At 70 the slots free by then are 3 (60), 4 and 5 (0): slot 3 leaves
	// the smallest gap. At 95 slots 2 and 3 tie at 90, at 100 slots 4 and 5
	// at 100: ties go to the lower slot.
	for _, c := range []struct {
		start int64
		slot  int
	}{{70, 3}, {80, 4}, {80, 5}, {95, 2}, {100, 4}} {
		a, err := mk.place(task("p", workload.MapTask, 20), c.start)
		if err != nil {
			t.Fatal(err)
		}
		if a.slot != c.slot || a.res != c.slot/2 || a.start != c.start {
			t.Fatalf("placed at %d on slot %d (resource %d), want slot %d", c.start, a.slot, a.res, c.slot)
		}
	}
	// Slots 2-5 are now free at 115, 90, 120 and 100, slots 0-1 blocked:
	// at 85 nothing fits.
	if _, err := mk.place(task("early", workload.MapTask, 1), 85); err == nil {
		t.Fatal("placed a task where every slot is busy")
	}
}

// Which slot of its resource a running task is pinned on does not change
// the resource any task is placed on: the busy-list oracle, pinned on
// random slots of each running task's resource, picks the resources the
// free-time matchmaker picks.
func TestPinnedSlotDoesNotChangeResources(t *testing.T) {
	uniform := sim.Cluster{NumResources: 3, MapSlots: 2, ReduceSlots: 2}
	for n := 0; n < 40; n++ {
		rng := stats.NewStream(77, uint64(n))
		in := randomReadbackInstance(rng, uniform, ModeCombined, true, n%2 == 0, false, n%3 == 0)
		bm, err := new(round).buildModel(in.mode, in.now, in.cluster, in.work, in.down)
		if err != nil {
			t.Fatalf("instance %d: %v", n, err)
		}
		res := cp.NewSolver(bm.model, cp.Params{NodeLimit: 2000}).Solve()
		if !res.HasSolution() {
			t.Fatalf("instance %d: no solution (%v)", n, res.Status)
		}
		got, err := bm.placements(&res, in.matchmaker(t))
		if err != nil {
			t.Fatalf("instance %d: %v", n, err)
		}
		// Move each running task to a random free slot of its resource.
		shuffled := map[*workload.Task]int{}
		for k, per := range [2]int64{uniform.MapSlots, uniform.ReduceSlots} {
			for r := 0; r < uniform.NumResources; r++ {
				var tasks []*workload.Task
				for task, s := range in.slots {
					if int(task.Type) == k && s/int(per) == r {
						tasks = append(tasks, task)
					}
				}
				slices.SortFunc(tasks, func(a, b *workload.Task) int { return strings.Compare(a.ID, b.ID) })
				perm := make([]int, per)
				for i := range perm {
					perm[i] = r*int(per) + i
				}
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				for i, task := range tasks {
					shuffled[task] = perm[i]
				}
			}
		}
		want := oraclePlacements(bm, &res, in.oracle(shuffled))
		if len(got) != len(want) {
			t.Fatalf("instance %d: %d placements, oracle has %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i].task != want[i].task || got[i].res != want[i].res {
				t.Fatalf("instance %d placement %d: %s on r%d, oracle on shuffled slots %s on r%d",
					n, i, got[i].task.ID, got[i].res, want[i].task.ID, want[i].res)
			}
		}
	}
}

func TestMatchmakerBestGapChoice(t *testing.T) {
	mk := newMatchmaker(2, 1, 1) // 2 resources, 1 map slot each
	// Slot 0 free at 10, slot 1 free at 8: placing at 11 leaves gap 1 on
	// slot 0 and gap 3 on slot 1 — the paper's example prefers slot 0.
	mk.mapFree[0], mk.mapFree[1] = 10, 8
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
	mk.mapFree[0] = 500 // a running task the cumulative never saw
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
	if err := mk.pin(running, 0, 0, running.Exec); err != nil { // unit slot 0 busy [0,100)
		t.Fatal(err)
	}
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
