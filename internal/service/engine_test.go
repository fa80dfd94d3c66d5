package service

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/trace"
	"mrcprm/internal/wal"
	"mrcprm/internal/workload"
)

// deterministicCfg disables the wall-clock solve budget so runs are a pure
// function of the seed (same settings as the core and sim determinism
// tests).
func deterministicCfg() core.Config { return core.DeterministicConfig() }

// TestVirtualRunMatchesSim is the golden determinism contract: a
// virtual-clock engine run over a submitted job stream produces a
// byte-identical executed schedule — and identical metrics fingerprints —
// to a plain sim.New+Run over the same jobs.
func TestVirtualRunMatchesSim(t *testing.T) {
	wcfg := workload.DefaultSynthetic()
	wcfg.NumResources = 10
	jobs, err := wcfg.Generate(20, stats.NewStream(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	cluster := sim.Cluster{NumResources: 10, MapSlots: 2, ReduceSlots: 2}

	ref := trace.NewRecorder()
	s, err := sim.New(cluster, core.New(cluster, deterministicCfg()), jobs)
	if err != nil {
		t.Fatal(err)
	}
	s.AddObserver(ref)
	refM, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRecorder()
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg(), Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		id, err := e.Submit(workload.SpecOf(j))
		if err != nil {
			t.Fatal(err)
		}
		if id != j.ID {
			t.Fatalf("engine assigned id %d to job %d", id, j.ID)
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	e.CloseIntake()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	m, _ := e.Result()
	// The manager parked jobs (Section V.E) in a run whose intake closed at
	// Start, so the loop met a closed intake while jobs were parked and
	// finished on their release timers alone.
	if d := e.Metrics().Manager.Deferred; d == 0 {
		t.Fatal("no job was deferred; the run does not cover closing the intake over parked jobs")
	}

	var want, got bytes.Buffer
	if err := ref.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("executed schedules differ: %d vs %d trace bytes", want.Len(), got.Len())
	}
	if m.LateJobs != refM.LateJobs {
		t.Fatalf("late jobs %d, want %d", m.LateJobs, refM.LateJobs)
	}
	if m.Fingerprint() != refM.Fingerprint() {
		t.Fatalf("metrics fingerprints differ: %x vs %x", m.Fingerprint(), refM.Fingerprint())
	}
}

// TestConcurrentSubmissions exercises the intake path under the race
// detector: submissions and status queries land from several goroutines
// while the run loop is stepping (and solving) concurrently.
func TestConcurrentSubmissions(t *testing.T) {
	cluster := sim.Cluster{NumResources: 4, MapSlots: 2, ReduceSlots: 2}
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 4, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				spec := workload.JobSpec{
					DeadlineMS:   3_600_000,
					MapExecMS:    []int64{1000, 2000},
					ReduceExecMS: []int64{1500},
				}
				if _, err := e.Submit(spec); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					e.Metrics()
					e.Jobs()
					e.Schedule()
				}
			}
		}(g)
	}
	wg.Wait()
	e.CloseIntake()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	m, _ := e.Result()
	total := goroutines * perG
	if m.JobsArrived != total || m.JobsCompleted != total {
		t.Fatalf("arrived %d completed %d, want %d both", m.JobsArrived, m.JobsCompleted, total)
	}
	for _, st := range e.Jobs() {
		if st.State != StateCompleted {
			t.Fatalf("job %d ended in state %s", st.ID, st.State)
		}
	}
}

func TestAdmissionControl(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg(), Admission: true})
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.Submit(workload.JobSpec{DeadlineMS: 1000, MapExecMS: []int64{5000}})
	var ae *core.AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("infeasible job accepted (err %v)", err)
	}
	st, ok := e.Job(id)
	if !ok || st.State != StateRejected || st.Reason == "" {
		t.Fatalf("rejected job status %+v", st)
	}
	id2, err := e.Submit(workload.JobSpec{DeadlineMS: 60_000, MapExecMS: []int64{5000}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	e.CloseIntake()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	st2, _ := e.Job(id2)
	if st2.State != StateCompleted || st2.Late {
		t.Fatalf("feasible job ended %+v", st2)
	}
	snap := e.Metrics()
	if snap.Submitted != 2 || snap.Rejected != 1 || snap.JobsCompleted != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	// IDs index the registry: one before the first and one past the last
	// submission are unknown.
	for _, id := range []int{-1, snap.Submitted} {
		if st, ok := e.Job(id); ok {
			t.Fatalf("Job(%d) found %+v", id, st)
		}
	}
}

// TestWallClockMode runs a tiny stream against the wall clock at high
// speedup; the daemon path must complete it and stamp submission-time
// arrivals.
func TestWallClockMode(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2}
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg(), Mode: Wall, Speedup: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		// The client-supplied arrival must be replaced with the submission
		// time, and the SLA window (here 1h after arrival) shifted with it.
		spec := workload.JobSpec{
			ArrivalMS:    999_999_999,
			DeadlineMS:   999_999_999 + 3_600_000,
			MapExecMS:    []int64{400, 400},
			ReduceExecMS: []int64{200},
		}
		if _, err := e.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	e.CloseIntake()
	select {
	case <-e.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("wall-clock run did not finish")
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	m, _ := e.Result()
	if m.JobsCompleted != 3 {
		t.Fatalf("completed %d jobs, want 3", m.JobsCompleted)
	}
	for _, st := range e.Jobs() {
		if st.ArrivalMS >= 999_999_999 {
			t.Fatalf("job %d kept its client-supplied arrival %d", st.ID, st.ArrivalMS)
		}
		if got := st.DeadlineMS - st.ArrivalMS; got != 3_600_000 {
			t.Fatalf("job %d SLA window %dms after restamp, want 3600000", st.ID, got)
		}
	}
}

func TestStopAborts(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 2, ReduceSlots: 2}
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg(), Mode: Wall, Speedup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// At speedup 1 this job takes minutes of wall time; Stop must abort it.
	if _, err := e.Submit(workload.JobSpec{DeadlineMS: 3_600_000, MapExecMS: []int64{600_000}}); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	select {
	case <-e.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not end the run")
	}
	if err := e.Wait(); !errors.Is(err, ErrStopped) {
		t.Fatalf("run error %v, want ErrStopped", err)
	}
}

// Stop on a never-started engine must still end the run: nothing else will
// ever close Done, and mrcpd's bind-failure path stops before it starts.
func TestStopBeforeStart(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg()})
	if err != nil {
		t.Fatal(err)
	}
	e.Stop()
	select {
	case <-e.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Stop before Start did not close Done")
	}
	if err := e.Wait(); !errors.Is(err, ErrStopped) {
		t.Fatalf("run error %v, want ErrStopped", err)
	}
	if err := e.Start(); !errors.Is(err, ErrRunning) {
		t.Fatalf("Start after Stop returned %v, want ErrRunning", err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg()})
	if err != nil {
		t.Fatal(err)
	}
	e.CloseIntake()
	if _, err := e.Submit(workload.JobSpec{DeadlineMS: 10_000, MapExecMS: []int64{100}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close returned %v, want ErrClosed", err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleStart(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	e, err := New(Config{Cluster: cluster, Manager: deterministicCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); !errors.Is(err, ErrRunning) {
		t.Fatalf("second Start returned %v, want ErrRunning", err)
	}
	e.CloseIntake()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestAdminAfterFinish: once the run has ended, a fault switch and an
// outage are refused with ErrFinished (409 over HTTP) and nothing is
// journaled, with the journal on and off.
func TestAdminAfterFinish(t *testing.T) {
	for _, journal := range []bool{false, true} {
		t.Run(fmt.Sprintf("journal=%v", journal), func(t *testing.T) {
			cfg := Config{Cluster: memCluster, Policy: "fifo"}
			if journal {
				cfg.JournalPath, cfg.JournalSync = filepath.Join(t.TempDir(), "run.wal"), "none"
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Submit(fittingSpec); err != nil {
				t.Fatal(err)
			}
			runToEnd(t, e)
			if err := e.ApplyFaults(FaultSpec{FailRate: 0.1}); !errors.Is(err, ErrFinished) {
				t.Errorf("ApplyFaults after the run: %v, want ErrFinished", err)
			}
			if _, _, err := e.InjectOutage(0, e.NowMS(), e.NowMS()+1_000); !errors.Is(err, ErrFinished) {
				t.Errorf("InjectOutage after the run: %v, want ErrFinished", err)
			}
			h := engineHandler(e)
			for _, body := range []string{`{"failRate":0.1}`, `{"resource":0,"durationMs":1000}`} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/faults", strings.NewReader(body)))
				if rec.Code != http.StatusConflict {
					t.Errorf("%s after the run: %d %s, want 409", body, rec.Code, rec.Body)
				}
			}
			if m, _ := e.Result(); m.Outages != 0 {
				t.Errorf("%d outages in the finished run", m.Outages)
			}
			if !journal {
				return
			}
			j, recs, err := wal.Open(cfg.JournalPath, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if len(recs) != 3 { // meta, submit, close
				t.Errorf("journal holds %d records after the refused calls, want 3", len(recs))
			}
		})
	}
}

// TestSubmitAfterStop: once Stop has ended the run, its intake never
// closed, a submission gets ErrClosed (HTTP 503), the answer a closed
// intake gives, before anything is registered or journaled, journal on or
// off.
func TestSubmitAfterStop(t *testing.T) {
	for _, journal := range []bool{false, true} {
		t.Run(fmt.Sprintf("journal=%v", journal), func(t *testing.T) {
			cfg := Config{Cluster: memCluster, Policy: "fifo"}
			if journal {
				cfg.JournalPath, cfg.JournalSync = filepath.Join(t.TempDir(), "run.wal"), "none"
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Stop()
			if id, err := e.Submit(fittingSpec); !errors.Is(err, ErrClosed) {
				t.Errorf("Submit after Stop: id %d, %v, want ErrClosed", id, err)
			}
			rec := httptest.NewRecorder()
			engineHandler(e).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", specReader(t, fittingSpec)))
			if rec.Code != http.StatusServiceUnavailable {
				t.Errorf("POST after Stop: %d %s, want 503", rec.Code, rec.Body)
			}
			if jobs, snap := e.Jobs(), e.Metrics(); len(jobs) != 0 || snap.Submitted != 0 || e.PendingWork() != 0 {
				t.Errorf("registry holds %d jobs (submitted %d, pending work %d) after Stop, want none",
					len(jobs), snap.Submitted, e.PendingWork())
			}
			if !journal {
				return
			}
			j, recs, err := wal.Open(cfg.JournalPath, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if len(recs) != 1 { // meta
				t.Errorf("journal holds %d records after the refused submissions, want 1", len(recs))
			}
		})
	}
}

// TestMetricsOneSnapshot polls Metrics while a virtual run drains and
// submissions still arrive: every snapshot must read its depth and its job
// counts at one moment, so Pending is exactly what they leave.
func TestMetricsOneSnapshot(t *testing.T) {
	e, err := New(Config{Cluster: memCluster, Policy: "fifo"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n/3; i++ {
		if _, err := e.Submit(fittingSpec); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// The late submissions race the run's clock, which may pass the specs'
	// 100 s deadline first and make a spec invalid; a deadline past the n
	// seconds of work the run holds keeps every spec valid.
	fits, unrunnable := fittingSpec, unrunnableSpec
	fits.DeadlineMS, unrunnable.DeadlineMS = n*1_000, n*1_000
	go func() {
		defer e.CloseIntake()
		for i := n / 3; i < n; i++ {
			spec := fits
			if i%10 == 0 {
				spec = unrunnable
			}
			if _, err := e.Submit(spec); err != nil && !errors.As(err, new(*core.AdmissionError)) {
				t.Error(err)
				return
			}
		}
	}()
	check := func(s Snapshot) {
		t.Helper()
		if want := s.Submitted - s.Rejected - s.JobsCompleted - s.JobsAbandoned; s.Pending != want {
			t.Fatalf("pending %d, but submitted %d - rejected %d - completed %d - abandoned %d = %d",
				s.Pending, s.Submitted, s.Rejected, s.JobsCompleted, s.JobsAbandoned, want)
		}
	}
	polls := 0
	for done := false; !done; polls++ {
		select {
		case <-e.Done():
			done = true
		default:
		}
		check(e.Metrics())
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	final := e.Metrics()
	check(final)
	if final.Submitted != n || final.Pending != 0 {
		t.Fatalf("final snapshot submitted %d pending %d, want %d and 0", final.Submitted, final.Pending, n)
	}
	t.Logf("%d consistent polls", polls)
}

// memCluster and fitting/unrunnable specs: on a capacity-4 memory cluster a
// task asking for 5 units can never run, whatever its deadline.
var (
	memCluster     = sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1, MemCapacity: 4}
	fittingSpec    = workload.JobSpec{DeadlineMS: 100_000, MapExecMS: []int64{1_000}, MapMem: []int64{4}}
	unrunnableSpec = workload.JobSpec{DeadlineMS: 100_000, MapExecMS: []int64{1_000}, MapMem: []int64{5}}
)

// runToEnd starts the engine, closes its intake and waits for the run.
func runToEnd(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	e.CloseIntake()
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
}

// checkOneRejected asserts the post-run books of one fitting and one
// unrunnable submission: the unrunnable one reads rejected, counts in
// Rejected, and holds no pending depth or pending work.
func checkOneRejected(t *testing.T, e *Engine, unrunnable int) {
	t.Helper()
	if st, _ := e.Job(unrunnable); st.State != StateRejected {
		t.Errorf("unrunnable job state %q, want rejected", st.State)
	}
	snap := e.Metrics()
	if snap.Submitted != 2 || snap.Rejected != 1 || snap.Pending != 0 || snap.JobsCompleted != 1 {
		t.Errorf("submitted=%d rejected=%d pending=%d completed=%d, want 2 1 0 1",
			snap.Submitted, snap.Rejected, snap.Pending, snap.JobsCompleted)
	}
	if w := e.PendingWork(); w != 0 {
		t.Errorf("pending work %d ms after the run, want 0", w)
	}
}

// TestUnrunnableJobIsRejectedWithoutAdmission: with Admission off, a job
// the cluster can never run is still refused at Submit with the typed
// admission error, so it never takes a MaxPending slot.
func TestUnrunnableJobIsRejectedWithoutAdmission(t *testing.T) {
	e, err := New(Config{Cluster: memCluster, Policy: "fifo", MaxPending: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(fittingSpec); err != nil {
		t.Fatal(err)
	}
	id, err := e.Submit(unrunnableSpec)
	var ae *core.AdmissionError
	if !errors.As(err, &ae) || ae.Unrunnable == nil {
		t.Fatalf("unrunnable submission: %v, want an *AdmissionError with Unrunnable set", err)
	}
	runToEnd(t, e)
	checkOneRejected(t, e, id)
}

// TestInjectFailureReleasesPending: a journal written before Submit refused
// unrunnable jobs can hold one as accepted. Replayed, the simulator refuses
// it at injection; the job then counts as rejected and releases its
// pending depth and pending work.
func TestInjectFailureReleasesPending(t *testing.T) {
	cfg := Config{Cluster: memCluster, Policy: "fifo",
		JournalPath: filepath.Join(t.TempDir(), "run.wal"), JournalSync: "none"}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(fittingSpec); err != nil {
		t.Fatal(err)
	}
	spec := unrunnableSpec
	if err := e.journalAppend(&journalRecord{Kind: recSubmit, ID: 1, Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	e.Stop()

	r, info, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Accepted != 2 {
		t.Fatalf("replayed %d accepted submissions, want 2", info.Accepted)
	}
	if r.PendingWork() != 2_000 {
		t.Fatalf("replayed pending work %d ms, want 2000", r.PendingWork())
	}
	runToEnd(t, r)
	checkOneRejected(t, r, 1)
}

// stopAfter is an observer that stops its engine on the simulator's n-th
// task finish, so the run freezes mid-way: the step in flight completes
// and the run loop exits before the next.
type stopAfter struct {
	sim.NopObserver
	e *Engine
	n int
}

func (o *stopAfter) TaskFinished(int64, *workload.Task, *workload.Job, int) {
	if o.n--; o.n == 0 {
		o.e.Stop()
	}
}

// TestJobsMatchesJob: a listing is one moment's view and holds what a
// lookup reports, placements aside. Faulted runs are frozen at three
// points mid-way and one runs to the end; in each, Jobs()[i] must equal
// Job(i) without Placements for every submission. While the runs step,
// a second goroutine lists and looks up for the race detector.
func TestJobsMatchesJob(t *testing.T) {
	jobs, cluster, mcfg := faultedStream(t)
	for _, finishes := range []int{40, 120, 200, 0} {
		t.Run(fmt.Sprintf("stop-after-%d", finishes), func(t *testing.T) {
			stop := &stopAfter{n: finishes}
			e, err := New(Config{Cluster: cluster, Manager: mcfg, Observer: stop})
			if err != nil {
				t.Fatal(err)
			}
			stop.e = e
			injectFaults(t, e, jobs)
			for _, j := range jobs {
				if _, err := e.Submit(workload.SpecOf(j)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-e.Done():
						return
					default:
					}
					for _, st := range e.Jobs() {
						e.Job(st.ID)
					}
				}
			}()
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			if finishes == 0 {
				e.CloseIntake()
			}
			err = e.Wait()
			wg.Wait()
			if finishes == 0 && err != nil || finishes > 0 && !errors.Is(err, ErrStopped) {
				t.Fatalf("run ended with %v", err)
			}

			list := e.Jobs()
			if len(list) != len(jobs) {
				t.Fatalf("%d listed, %d submitted", len(list), len(jobs))
			}
			states := map[JobState]int{}
			predicted := 0
			var plan []TaskPlacement
			for i, st := range list {
				one, ok := e.Job(i)
				if !ok {
					t.Fatalf("job %d not found", i)
				}
				for _, p := range one.Placements {
					if !p.Done {
						plan = append(plan, p)
					}
				}
				one.Placements = nil
				if !reflect.DeepEqual(st, one) {
					t.Fatalf("Jobs()[%d] = %+v\nJob(%d)   = %+v", i, st, i, one)
				}
				states[st.State]++
				if st.PredictedEndMS > 0 {
					predicted++
				}
			}
			sort.Slice(plan, func(a, b int) bool {
				if plan[a].StartMS != plan[b].StartMS {
					return plan[a].StartMS < plan[b].StartMS
				}
				return plan[a].Task < plan[b].Task
			})
			if got := e.Schedule(); !reflect.DeepEqual(got, plan) {
				t.Errorf("Schedule() lists %d placements, the jobs' undone placements are %d:\n%+v\n%+v",
					len(got), len(plan), got, plan)
			}
			t.Logf("states %v, %d with a predicted end, %d placements planned", states, predicted, len(plan))
			if finishes > 0 && (states[StateRunning] == 0 || predicted == 0) {
				t.Errorf("frozen run has %d running jobs and %d predicted ends, want both > 0",
					states[StateRunning], predicted)
			}
			if finishes == 0 && states[StateCompleted]+states[StateAbandoned] != len(jobs) {
				t.Errorf("finished run states %v", states)
			}
		})
	}
}
