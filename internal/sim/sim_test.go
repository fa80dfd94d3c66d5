package sim

import (
	"strings"
	"testing"
	"time"

	"mrcprm/internal/workload"
)

// fifoRM is a deliberately simple manager used to exercise the engine: it
// keeps its own per-slot availability timelines and packs each arriving
// job's tasks first-fit, never rescheduling.
type fifoRM struct {
	NoFaults
	mapFree []int64
	redFree []int64
	slotsMp int64
	slotsRd int64
}

func newFifoRM(c Cluster) *fifoRM {
	return &fifoRM{
		mapFree: make([]int64, c.TotalMapSlots()),
		redFree: make([]int64, c.TotalReduceSlots()),
		slotsMp: c.MapSlots,
		slotsRd: c.ReduceSlots,
	}
}

func (f *fifoRM) Name() string { return "fifo-test" }

func (f *fifoRM) OnJobArrival(ctx Context, j *workload.Job) error {
	var lastMapEnd int64
	for _, t := range j.MapTasks {
		slot := earliestSlot(f.mapFree)
		start := max64(max64(ctx.Now(), j.EarliestStart), f.mapFree[slot])
		f.mapFree[slot] = start + t.Exec
		if end := start + t.Exec; end > lastMapEnd {
			lastMapEnd = end
		}
		if err := ctx.Schedule(t, int(int64(slot)/f.slotsMp), start); err != nil {
			return err
		}
	}
	for _, t := range j.ReduceTasks {
		slot := earliestSlot(f.redFree)
		start := max64(lastMapEnd, f.redFree[slot])
		f.redFree[slot] = start + t.Exec
		if err := ctx.Schedule(t, int(int64(slot)/f.slotsRd), start); err != nil {
			return err
		}
	}
	return nil
}

func (f *fifoRM) OnTaskComplete(Context, *workload.Task) error { return nil }
func (f *fifoRM) OnTimer(Context) error                        { return nil }

func earliestSlot(free []int64) int {
	best := 0
	for i := range free {
		if free[i] < free[best] {
			best = i
		}
	}
	return best
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// makeJob builds a job with the given map/reduce execution times (ms).
func makeJob(id int, arrival, earliest, deadline int64, mapExec, redExec []int64) *workload.Job {
	j := &workload.Job{ID: id, Arrival: arrival, EarliestStart: earliest, Deadline: deadline}
	for i, e := range mapExec {
		j.MapTasks = append(j.MapTasks, &workload.Task{
			ID: "m", JobID: id, Type: workload.MapTask, Exec: e, Req: 1})
		_ = i
	}
	for range redExec {
		j.ReduceTasks = append(j.ReduceTasks, &workload.Task{
			ID: "r", JobID: id, Type: workload.ReduceTask, Exec: redExec[0], Req: 1})
	}
	return j
}

func oneSlotCluster() Cluster { return Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1} }

func TestSimSingleJob(t *testing.T) {
	j := makeJob(0, 1000, 1000, 10000, []int64{2000}, []int64{3000})
	s, err := New(oneSlotCluster(), newFifoRM(oneSlotCluster()), []*workload.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsArrived != 1 || m.JobsCompleted != 1 || m.LateJobs != 0 {
		t.Fatalf("metrics %+v", m)
	}
	// Map runs [1000,3000), reduce [3000,6000): completion 6000, turnaround 5000ms.
	if m.MakespanMS != 6000 {
		t.Fatalf("makespan %d, want 6000", m.MakespanMS)
	}
	if m.T() != 5.0 {
		t.Fatalf("T = %g s, want 5", m.T())
	}
}

func TestSimLateJobDetection(t *testing.T) {
	j := makeJob(0, 0, 0, 4999, []int64{2000}, []int64{3000}) // completes at 5000 > 4999
	s, _ := New(oneSlotCluster(), newFifoRM(oneSlotCluster()), []*workload.Job{j})
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.LateJobs != 1 || m.P() != 1 {
		t.Fatalf("late=%d P=%g", m.LateJobs, m.P())
	}
	if !m.Records[0].Late() {
		t.Fatal("record not marked late")
	}
}

func TestSimSerializesOnCapacity(t *testing.T) {
	j1 := makeJob(0, 0, 0, 1e9, []int64{5000}, nil)
	j2 := makeJob(1, 100, 100, 1e9, []int64{5000}, nil)
	s, _ := New(oneSlotCluster(), newFifoRM(oneSlotCluster()), []*workload.Job{j1, j2})
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// j1 [0,5000), j2 [5000,10000).
	if m.MakespanMS != 10000 {
		t.Fatalf("makespan %d, want 10000", m.MakespanMS)
	}
	// T = (5000 + 9900)/2 ms.
	if got := m.T(); got != 7.45 {
		t.Fatalf("T = %g s, want 7.45", got)
	}
}

// badReduceRM schedules the reduce task at time 0, before the map completes.
type badReduceRM struct{ fifoRM }

func (b *badReduceRM) OnJobArrival(ctx Context, j *workload.Job) error {
	if err := ctx.Schedule(j.MapTasks[0], 0, ctx.Now()); err != nil {
		return err
	}
	return ctx.Schedule(j.ReduceTasks[0], 0, ctx.Now())
}

// scriptRM places every task of an arriving job where its script says and
// ignores every fault, so a failed or killed attempt is never re-placed.
type scriptRM struct {
	noopRM
	place map[*workload.Task][2]int64 // resource, start
}

func (r *scriptRM) OnJobArrival(ctx Context, j *workload.Job) error {
	for _, t := range j.Tasks() {
		if err := ctx.Schedule(t, int(r.place[t][0]), r.place[t][1]); err != nil {
			return err
		}
	}
	return nil
}

// scriptedFaults fails the first attempt of one task halfway through and
// plans the given outages.
type scriptedFaults struct {
	failID  string
	outages []Outage
}

func (f scriptedFaults) Attempt(id string, attempt int) AttemptFault {
	if id == f.failID && attempt == 0 {
		return AttemptFault{Fails: true, FailPoint: 0.5}
	}
	return AttemptFault{}
}

func (f scriptedFaults) PlannedOutages() []Outage { return f.outages }

func TestSimRejectsReduceBeforeMaps(t *testing.T) {
	j := makeJob(0, 0, 0, 1e9, []int64{1000}, []int64{1000})
	s, _ := New(oneSlotCluster(), &badReduceRM{}, []*workload.Job{j})
	_, err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "before map task") {
		t.Fatalf("expected reduce-before-map error, got %v", err)
	}

	// A map task whose attempt ended without completing — failed and
	// awaiting a retry, or killed by an outage — still blocks the reduce,
	// although the job's other map task finished and the reduce starts
	// after both were planned to end.
	cluster := Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	for name, faults := range map[string]scriptedFaults{
		"failed awaiting retry": {failID: "lost"},
		"killed by outage":      {outages: []Outage{{Resource: 1, DownAt: 400, UpAt: 600}}},
	} {
		j := makeJob(0, 0, 0, 1e9, []int64{1000, 1000}, []int64{1000})
		done, lost, red := j.MapTasks[0], j.MapTasks[1], j.ReduceTasks[0]
		done.ID, lost.ID = "done", "lost"
		rm := &scriptRM{place: map[*workload.Task][2]int64{done: {0, 0}, lost: {1, 0}, red: {0, 1000}}}
		s, err := New(cluster, rm, []*workload.Job{j})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetFaultInjector(faults); err != nil {
			t.Fatal(err)
		}
		_, err = s.Run()
		if err == nil || !strings.Contains(err.Error(), "reduce task r started before map task lost completed") {
			t.Fatalf("%s: expected the reduce-before-map error to name the lost map task, got %v", name, err)
		}
		if !s.Status(done).Completed || s.Status(lost).Completed || s.Attempts(lost) != 1 {
			t.Fatalf("%s: run did not reach the state under test: done completed=%v, lost completed=%v attempts=%d",
				name, s.Status(done).Completed, s.Status(lost).Completed, s.Attempts(lost))
		}
	}
}

// overloadRM schedules two map tasks concurrently on a 1-slot resource.
type overloadRM struct{ fifoRM }

func (b *overloadRM) OnJobArrival(ctx Context, j *workload.Job) error {
	for _, t := range j.MapTasks {
		if err := ctx.Schedule(t, 0, ctx.Now()); err != nil {
			return err
		}
	}
	return nil
}

func TestSimRejectsCapacityViolation(t *testing.T) {
	j := makeJob(0, 0, 0, 1e9, []int64{1000, 1000}, nil)
	s, _ := New(oneSlotCluster(), &overloadRM{}, []*workload.Job{j})
	_, err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("expected capacity error, got %v", err)
	}
}

// earlyRM starts the task before the job's earliest start time.
type earlyRM struct{ fifoRM }

func (b *earlyRM) OnJobArrival(ctx Context, j *workload.Job) error {
	return ctx.Schedule(j.MapTasks[0], 0, ctx.Now())
}

func TestSimRejectsStartBeforeEarliestStart(t *testing.T) {
	j := makeJob(0, 0, 5000, 1e9, []int64{1000}, nil) // arrives 0, s_j = 5000
	s, _ := New(oneSlotCluster(), &earlyRM{}, []*workload.Job{j})
	_, err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "earliest start") {
		t.Fatalf("expected earliest-start error, got %v", err)
	}
}

// rescheduleRM places job 0's task far out, then pulls it in when job 1
// arrives, exercising stale-event invalidation.
type rescheduleRM struct {
	NoFaults
	moved bool
	j0    *workload.Job
}

func (r *rescheduleRM) Name() string { return "resched-test" }

func (r *rescheduleRM) OnJobArrival(ctx Context, j *workload.Job) error {
	switch j.ID {
	case 0:
		r.j0 = j
		return ctx.Schedule(j.MapTasks[0], 0, 10000)
	default:
		r.moved = true
		// Move job 0's task earlier and put job 1's task after it.
		if err := ctx.Schedule(r.j0.MapTasks[0], 0, ctx.Now()); err != nil {
			return err
		}
		return ctx.Schedule(j.MapTasks[0], 0, ctx.Now()+1000)
	}
}

func (r *rescheduleRM) OnTaskComplete(Context, *workload.Task) error { return nil }
func (r *rescheduleRM) OnTimer(Context) error                        { return nil }

func TestSimReschedulingInvalidatesOldStart(t *testing.T) {
	j0 := makeJob(0, 0, 0, 1e9, []int64{1000}, nil)
	j1 := makeJob(1, 500, 500, 1e9, []int64{1000}, nil)
	s, _ := New(oneSlotCluster(), &rescheduleRM{}, []*workload.Job{j0, j1})
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// j0 now runs [500,1500), j1 [1500,2500): if the stale event at 10000
	// were honored the ledger would double-start the task.
	if m.MakespanMS != 2500 {
		t.Fatalf("makespan %d, want 2500", m.MakespanMS)
	}
}

// timerRM defers all scheduling to a timer.
type timerRM struct {
	NoFaults
	fired int
	jobs  []*workload.Job
}

func (r *timerRM) Name() string { return "timer-test" }

func (r *timerRM) OnJobArrival(ctx Context, j *workload.Job) error {
	r.jobs = append(r.jobs, j)
	ctx.SetTimer(ctx.Now() + 2000)
	ctx.SetTimer(ctx.Now() + 2000) // coalesces
	return nil
}

func (r *timerRM) OnTaskComplete(Context, *workload.Task) error { return nil }

func (r *timerRM) OnTimer(ctx Context) error {
	r.fired++
	for _, j := range r.jobs {
		if !ctx.Status(j.MapTasks[0]).Started {
			if err := ctx.Schedule(j.MapTasks[0], 0, ctx.Now()); err != nil {
				return err
			}
		}
	}
	r.jobs = nil
	return nil
}

func TestSimTimers(t *testing.T) {
	j := makeJob(0, 0, 0, 1e9, []int64{1000}, nil)
	rm := &timerRM{}
	s, _ := New(oneSlotCluster(), rm, []*workload.Job{j})
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rm.fired != 1 {
		t.Fatalf("timer fired %d times, want 1 (coalesced)", rm.fired)
	}
	if m.MakespanMS != 3000 {
		t.Fatalf("makespan %d, want 3000 (start at timer 2000)", m.MakespanMS)
	}
}

func TestSimRejectsPastSchedule(t *testing.T) {
	j := makeJob(0, 1000, 1000, 1e9, []int64{1000}, nil)
	s, _ := New(oneSlotCluster(), newFifoRM(oneSlotCluster()), []*workload.Job{j})
	// Drive manually: scheduling in the past must fail immediately.
	if err := s.Schedule(j.MapTasks[0], 0, -5); err == nil {
		t.Fatal("schedule in the past accepted")
	}
}

func TestSimUnscheduledTaskFailsRun(t *testing.T) {
	// An RM that never schedules anything leaves every job incomplete; the
	// error names the earliest-registered one. New registers in arrival
	// order, so of 16 jobs whose IDs run against their arrivals job 15 is
	// named, whatever order a map would have walked them in.
	var reversed []*workload.Job
	for id := 0; id < 16; id++ {
		reversed = append(reversed, makeJob(id, int64(15-id)*100, int64(15-id)*100, 1e9, []int64{1000}, nil))
	}
	for _, tc := range []struct {
		name string
		jobs []*workload.Job
		want string
	}{
		{"one job", []*workload.Job{makeJob(0, 0, 0, 1e9, []int64{1000}, nil)}, "job 0 incomplete"},
		{"earliest registered", reversed, "job 15 incomplete"},
	} {
		s, _ := New(oneSlotCluster(), &noopRM{}, tc.jobs)
		_, err := s.Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: expected %q error, got %v", tc.name, tc.want, err)
		}
	}
}

type noopRM struct{ NoFaults }

func (noopRM) Name() string                                 { return "noop" }
func (noopRM) OnJobArrival(Context, *workload.Job) error    { return nil }
func (noopRM) OnTaskComplete(Context, *workload.Task) error { return nil }
func (noopRM) OnTimer(Context) error                        { return nil }

func TestSimOverheadAccounting(t *testing.T) {
	j := makeJob(0, 0, 0, 1e9, []int64{1000}, nil)
	s, _ := New(oneSlotCluster(), newFifoRM(oneSlotCluster()), []*workload.Job{j})
	s.AddOverhead(30 * time.Millisecond)
	s.AddOverhead(70 * time.Millisecond)
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Invocations != 2 {
		t.Fatalf("invocations %d", m.Invocations)
	}
	if got := m.O(); got != 0.1 {
		t.Fatalf("O = %g s, want 0.1 (100ms over 1 job)", got)
	}
}

func TestSimClusterValidation(t *testing.T) {
	if _, err := New(Cluster{}, &noopRM{}, nil); err == nil {
		t.Fatal("zero cluster accepted")
	}
	// Task demand larger than per-resource capacity is rejected upfront.
	j := makeJob(0, 0, 0, 1e9, []int64{1000}, nil)
	j.MapTasks[0].Req = 5
	if _, err := New(oneSlotCluster(), &noopRM{}, []*workload.Job{j}); err == nil {
		t.Fatal("oversized task demand accepted")
	}
}

func TestSimPlacementQueries(t *testing.T) {
	j := makeJob(0, 0, 0, 1e9, []int64{1000}, nil)
	s, _ := New(oneSlotCluster(), &noopRM{}, []*workload.Job{j})
	task := j.MapTasks[0]
	if st := s.Status(task); st.Placed || st.Res != -1 {
		t.Fatal("unscheduled task has a placement")
	}
	if err := s.Schedule(task, 0, 500); err != nil {
		t.Fatal(err)
	}
	st := s.Status(task)
	if !st.Placed || st.Res != 0 || st.Start != 500 {
		t.Fatalf("placement %d/%d/%v", st.Res, st.Start, st.Placed)
	}
	// Place through the handle is Schedule without the lookup.
	if err := s.Place(st.Ref, 0, 700); err != nil {
		t.Fatal(err)
	}
	if got := s.Status(task); !got.Placed || got.Res != 0 || got.Start != 700 {
		t.Fatalf("placement through the handle %d/%d/%v", got.Res, got.Start, got.Placed)
	}
	if err := s.Place(TaskRef{}, 0, 700); err == nil {
		t.Fatal("Place accepted the empty handle")
	}
	other, _ := New(oneSlotCluster(), &noopRM{}, []*workload.Job{makeJob(0, 0, 0, 1e9, []int64{1000}, nil)})
	if err := other.Place(st.Ref, 0, 700); err == nil {
		t.Fatal("Place accepted a handle of another run")
	}
}
