package mrcprm_test

import (
	"fmt"
	"strings"
	"testing"

	"mrcprm"
)

// newRegisteredPolicy builds one registered policy for tests; MRCP-RM gets
// a node-bounded (wall-clock-free) search so results do not depend on the
// machine's speed.
func newRegisteredPolicy(t *testing.T, name string, cluster mrcprm.Cluster, opts mrcprm.PolicyOptions) mrcprm.ResourceManager {
	t.Helper()
	if name == "mrcp" {
		cfg := mrcprm.DefaultConfig()
		cfg.SolveTimeLimit = 0
		if opts.Retry != nil {
			cfg.Retry = *opts.Retry
		}
		opts.Extra = cfg
	}
	rm, err := mrcprm.NewPolicy(name, cluster, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

// memoryWorkload is tightWorkload on hetero-stream's memory shape: every
// machine holds 8 memory units and a task needs 1–4, so memory, not slots,
// decides where a task fits.
func memoryWorkload(t *testing.T) ([]*mrcprm.Job, mrcprm.Cluster) {
	t.Helper()
	wl := mrcprm.DefaultSyntheticWorkload()
	wl.NumResources = 6
	wl.NumMapHi = 8
	wl.NumReduceHi = 4
	wl.Lambda = 0.05
	wl.DeadlineUL = 2
	wl.TaskMemLo, wl.TaskMemHi = 1, 4
	jobs, err := wl.Generate(30, mrcprm.NewStream(7, 0xfeed))
	if err != nil {
		t.Fatal(err)
	}
	cluster := mrcprm.Cluster{NumResources: wl.NumResources,
		MapSlots: wl.MapSlotsPerResource, ReduceSlots: wl.ReduceSlotsPerResource, MemCapacity: 8}
	return jobs, cluster
}

// Every registered policy — including ones this test file has never heard
// of — must drive a contended workload to completion, on slots alone and
// with memory as a second packing dimension. MRCP-RM's late-job count on
// the slot-only input is pinned so the smoke test doubles as a regression
// gate.
func TestEveryRegisteredPolicyRunsWorkload(t *testing.T) {
	names := mrcprm.PolicyNames()
	if len(names) < 4 {
		t.Fatalf("expected at least mrcp, minedf, fifo, edf registered; got %v", names)
	}
	tightJobs, tightCluster := tightWorkload(t)
	memJobs, memCluster := memoryWorkload(t)
	inputs := []struct {
		name    string
		jobs    []*mrcprm.Job
		cluster mrcprm.Cluster
	}{{"slots", tightJobs, tightCluster}, {"memory", memJobs, memCluster}}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, in := range inputs {
				rm := newRegisteredPolicy(t, name, in.cluster, mrcprm.PolicyOptions{})
				m, err := mrcprm.Simulate(in.cluster, rm, in.jobs)
				if err != nil {
					t.Fatalf("%s: %v", in.name, err)
				}
				if m.JobsCompleted != len(in.jobs) {
					t.Errorf("%s: completed %d of %d jobs", in.name, m.JobsCompleted, len(in.jobs))
				}
				if m.JobsAbandoned != 0 {
					t.Errorf("%s: %d jobs abandoned in a fault-free run", in.name, m.JobsAbandoned)
				}
				if name == "mrcp" && in.name == "slots" && m.N() != 2 {
					t.Errorf("mrcp late jobs = %d, want 2 (pre-kernel baseline)", m.N())
				}
				t.Logf("%s on %s: N=%d T=%.1fs", rm.Name(), in.name, m.N(), m.T())
			}
		})
	}
}

// doomJob fails every attempt of one job's tasks (task IDs are
// "t<job>_<phase><idx>") and leaves every other job untouched.
type doomJob struct{ prefix string }

func (d doomJob) Attempt(taskID string, _ int) mrcprm.AttemptFault {
	if strings.HasPrefix(taskID, d.prefix) {
		return mrcprm.AttemptFault{Fails: true, FailPoint: 0.5}
	}
	return mrcprm.AttemptFault{}
}
func (doomJob) PlannedOutages() []mrcprm.Outage { return nil }

// All registered policies share rmkit's retry accounting, so the same fault
// fingerprint must produce the identical abandonment decision everywhere:
// exactly the doomed job goes, under the default budgets and under an
// Options-supplied override alike.
func TestPoliciesAgreeOnAbandonment(t *testing.T) {
	jobs, cluster := faultTestWorkload(t)
	doomed := jobs[5]
	plan := doomJob{prefix: fmt.Sprintf("t%d_", doomed.ID)}
	retries := []struct {
		name string
		opts mrcprm.PolicyOptions
	}{
		{"default-retry", mrcprm.PolicyOptions{}},
		{"tight-retry", mrcprm.PolicyOptions{Retry: &mrcprm.RetryPolicy{MaxTaskRetries: 1}}},
	}
	for _, rp := range retries {
		t.Run(rp.name, func(t *testing.T) {
			for _, name := range mrcprm.PolicyNames() {
				rm := newRegisteredPolicy(t, name, cluster, rp.opts)
				m, err := mrcprm.SimulateWithFaults(cluster, rm, jobs, plan)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if m.JobsAbandoned != 1 {
					t.Errorf("%s: abandoned %d jobs, want exactly the doomed one", name, m.JobsAbandoned)
				}
				if m.JobsCompleted != len(jobs)-1 {
					t.Errorf("%s: completed %d of %d undoomed jobs", name, m.JobsCompleted, len(jobs)-1)
				}
				for _, r := range m.Records {
					if r.Job.ID == doomed.ID {
						t.Errorf("%s: doomed job %d has a completion record", name, doomed.ID)
					}
				}
			}
		})
	}
}

// doubleKill scripts the case of ROADMAP 8(f): the first attempt of one map
// task fails, and then a single outage kills the retried attempt and its
// sibling map while both are running on the same resource.
type doubleKill struct{ failFirst string }

func (d doubleKill) Attempt(taskID string, attempt int) mrcprm.AttemptFault {
	if taskID == d.failFirst && attempt == 0 {
		return mrcprm.AttemptFault{Fails: true, FailPoint: 0.5}
	}
	return mrcprm.AttemptFault{}
}

func (doubleKill) PlannedOutages() []mrcprm.Outage {
	return []mrcprm.Outage{{Resource: 0, DownAt: 7_000, UpAt: 12_000}}
}

// One outage killing two attempts of the same job, with the first kill
// exhausting the job's retry budget and nothing else of the job running,
// must abandon that job under every policy and leave the run alive: the
// second kill belongs to a job that is already gone.
func TestPoliciesAgreeOnDoubleKill(t *testing.T) {
	cluster := mrcprm.Cluster{NumResources: 1, MapSlots: 2, ReduceSlots: 1}
	mkJob := func(id int, arrival int64) *mrcprm.Job {
		j := &mrcprm.Job{ID: id, Arrival: arrival, EarliestStart: arrival, Deadline: arrival + 200_000}
		for i := 1; i <= 2; i++ {
			j.MapTasks = append(j.MapTasks, &mrcprm.Task{ID: fmt.Sprintf("t%d_m%d", id, i),
				JobID: id, Type: mrcprm.MapTask, Exec: 10_000, Req: 1})
		}
		j.ReduceTasks = []*mrcprm.Task{{ID: fmt.Sprintf("t%d_r1", id),
			JobID: id, Type: mrcprm.ReduceTask, Exec: 5_000, Req: 1}}
		return j
	}
	// Job 0's maps start together at 0; t0_m1 fails at 5 s (retry 1 of a
	// budget of 1) and restarts at once, so the outage at 7 s kills both.
	jobs := []*mrcprm.Job{mkJob(0, 0), mkJob(1, 20_000)}
	opts := mrcprm.PolicyOptions{Retry: &mrcprm.RetryPolicy{JobRetryBudget: 1}}
	for _, name := range mrcprm.PolicyNames() {
		rm := newRegisteredPolicy(t, name, cluster, opts)
		m, err := mrcprm.SimulateWithFaults(cluster, rm, jobs, doubleKill{failFirst: "t0_m1"})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if m.TasksKilled != 2 {
			t.Errorf("%s: outage killed %d attempts, the scenario needs 2", name, m.TasksKilled)
		}
		if m.JobsAbandoned != 1 || m.JobsCompleted != 1 {
			t.Errorf("%s: abandoned %d, completed %d; want job 0 abandoned and job 1 completed",
				name, m.JobsAbandoned, m.JobsCompleted)
		}
	}
}
