package sim

import (
	"testing"

	"mrcprm/internal/workload"
)

// TestStepDrivenRunMatchesRun drives a simulation one event at a time and
// checks the outcome is identical to the one-shot Run loop.
func TestStepDrivenRunMatchesRun(t *testing.T) {
	gen := func() []*workload.Job {
		return []*workload.Job{
			makeJob(0, 0, 0, 30_000, []int64{2000, 2000}, []int64{3000}),
			makeJob(1, 500, 500, 40_000, []int64{4000}, []int64{1000}),
			makeJob(2, 900, 900, 50_000, []int64{1000}, nil),
		}
	}
	cluster := Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}

	sRun, err := New(cluster, newFifoRM(cluster), gen())
	if err != nil {
		t.Fatal(err)
	}
	mRun, err := sRun.Run()
	if err != nil {
		t.Fatal(err)
	}

	sStep, err := New(cluster, newFifoRM(cluster), gen())
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		if at, ok := sStep.NextEventAt(); ok && at < sStep.Now() {
			t.Fatalf("next event %d behind clock %d", at, sStep.Now())
		}
		more, err := sStep.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if !more {
			break
		}
	}
	mStep, err := sStep.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if steps < 3 {
		t.Fatalf("only %d steps processed", steps)
	}
	if mRun.JobsCompleted != mStep.JobsCompleted || mRun.LateJobs != mStep.LateJobs ||
		mRun.MakespanMS != mStep.MakespanMS || mRun.BusyMapSlotMS != mStep.BusyMapSlotMS {
		t.Fatalf("step-driven run diverged: %+v vs %+v", mStep, mRun)
	}
}

// TestAddJobMatchesPreloaded checks that adding jobs online (before the
// first step, in arrival order) reproduces a pre-loaded run exactly, also
// when Reserve rebuilds the task index between two AddJob calls.
func TestAddJobMatchesPreloaded(t *testing.T) {
	gen := func() []*workload.Job {
		return []*workload.Job{
			makeJob(0, 0, 0, 30_000, []int64{2000}, []int64{3000}),
			makeJob(1, 700, 700, 40_000, []int64{4000}, nil),
		}
	}
	cluster := Cluster{NumResources: 1, MapSlots: 2, ReduceSlots: 1}

	sPre, err := New(cluster, newFifoRM(cluster), gen())
	if err != nil {
		t.Fatal(err)
	}
	mPre, err := sPre.Run()
	if err != nil {
		t.Fatal(err)
	}

	sAdd, err := New(cluster, newFifoRM(cluster), nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen()
	for i, j := range jobs {
		if i == 1 {
			// Job 0's two tasks fill the index; one more overflows it.
			sAdd.Reserve(j.NumTasks())
			if cap(sAdd.byKey) < 4 {
				t.Fatalf("Reserve left the task index at capacity %d, want at least 4", cap(sAdd.byKey))
			}
		}
		if err := sAdd.AddJob(j); err != nil {
			t.Fatal(err)
		}
	}
	if got := sAdd.OutstandingJobs(); got != len(jobs) {
		t.Fatalf("outstanding = %d, want %d", got, len(jobs))
	}
	mAdd, err := sAdd.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mPre.JobsCompleted != mAdd.JobsCompleted || mPre.MakespanMS != mAdd.MakespanMS ||
		mPre.LateJobs != mAdd.LateJobs || mPre.Fingerprint() != mAdd.Fingerprint() {
		t.Fatalf("online-added run diverged: %+v vs %+v", mAdd, mPre)
	}
	if sAdd.OutstandingJobs() != 0 {
		t.Fatalf("outstanding = %d after completion", sAdd.OutstandingJobs())
	}
	for _, j := range jobs {
		if _, ok := sAdd.Job(j).Done(); !ok {
			t.Fatalf("job %d not recorded as done", j.ID)
		}
	}
}

// TestAddJobMidRun injects a job while the simulation is already executing.
func TestAddJobMidRun(t *testing.T) {
	cluster := oneSlotCluster()
	s, err := New(cluster, newFifoRM(cluster), []*workload.Job{
		makeJob(0, 0, 0, 30_000, []int64{2000}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Process the arrival, then add a second job due later.
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	late := makeJob(1, 5000, 5000, 60_000, []int64{1000}, nil)
	if err := s.AddJob(late); err != nil {
		t.Fatal(err)
	}
	if err := s.AddJob(makeJob(3, 0, 0, 60_000, []int64{1000}, nil)); err != nil {
		t.Fatal(err) // clock is still 0 after the first arrival event
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCompleted != 3 {
		t.Fatalf("completed %d jobs, want 3", m.JobsCompleted)
	}
	if err := s.AddJob(makeJob(4, 0, 0, 60_000, []int64{1000}, nil)); err == nil {
		t.Fatal("arrival in the past accepted")
	}
}

// TestInjectOutage checks runtime outage injection and its overlap guard.
func TestInjectOutage(t *testing.T) {
	cluster := Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	s, err := New(cluster, noopRM{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InjectOutage(1, 1000, 4000); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectOutage(1, 2000, 3000); err == nil {
		t.Fatal("overlapping outage accepted")
	}
	if err := s.InjectOutage(1, 4500, 5500); err != nil {
		t.Fatalf("disjoint follow-up outage rejected: %v", err)
	}
	if err := s.InjectOutage(5, 1000, 2000); err == nil {
		t.Fatal("invalid resource accepted")
	}
	if err := s.InjectOutage(0, 1000, 500); err == nil {
		t.Fatal("inverted window accepted")
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Outages != 2 || m.DowntimeMS != 4000 {
		t.Fatalf("outages=%d downtime=%d, want 2/4000", m.Outages, m.DowntimeMS)
	}
}
