package rmkit

import (
	"fmt"
	"testing"

	"mrcprm/internal/faults"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// fifoList is FIFO on the kernel: admission order, every job dispatched
// work-conservingly.
type fifoList struct{ *ListScheduler }

func (fifoList) Name() string { return "fifo" }

func newFIFOList(cluster sim.Cluster) fifoList {
	ls := NewListScheduler("fifo", cluster, nil)
	ls.Dispatch = func(ctx sim.Context) error {
		for _, js := range ls.Tracker.Active() {
			if err := ls.DispatchJob(ctx, js, -1, -1); err != nil {
				return err
			}
		}
		return nil
	}
	return fifoList{ls}
}

// abandonings sorts each abandonment by whether an attempt of the job was
// still running: such a job retires when that attempt ends, any other at
// once.
type abandonings struct {
	sim.NopObserver
	s                 *sim.Simulator
	draining, drained int
}

func (a *abandonings) JobAbandoned(_ int64, j *workload.Job) {
	if a.s.Job(j).Running() > 0 {
		a.draining++
	} else {
		a.drained++
	}
}

// TestListSchedulerRetiresAbandonedJobs runs faulted FIFO simulations in
// which jobs run out of retries, some with attempts still running, and
// checks that the tracker's job index ends empty: an abandoned job leaves
// it once its last attempt has ended, as a completed one does with its last
// task.
func TestListSchedulerRetiresAbandonedJobs(t *testing.T) {
	gen := workload.DefaultSynthetic()
	gen.NumResources = 4
	gen.NumMapHi = 8
	gen.NumReduceHi = 4
	gen.Lambda = 0.05
	cluster := sim.Cluster{NumResources: gen.NumResources,
		MapSlots: gen.MapSlotsPerResource, ReduceSlots: gen.ReduceSlotsPerResource}
	var draining, drained int
	for seed := uint64(5); seed <= 7; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			jobs, err := gen.Generate(60, stats.NewStream(21, 0xc0de))
			if err != nil {
				t.Fatal(err)
			}
			horizon := jobs[len(jobs)-1].Arrival
			plan, err := faults.New(faults.Config{
				TaskFailureProb: 0.15,
				MTBFMs:          float64(horizon) / 4,
				MTTRMs:          40_000,
				OutageHorizonMs: horizon,
				NumResources:    cluster.NumResources,
				Seed1:           seed, Seed2: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			rm := newFIFOList(cluster)
			rm.Retry = RetryPolicy{MaxTaskRetries: 1}
			s, err := sim.New(cluster, rm, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetFaultInjector(plan); err != nil {
				t.Fatal(err)
			}
			obs := &abandonings{s: s}
			s.AddObserver(obs)
			m, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if m.JobsAbandoned == 0 {
				t.Fatal("the run abandoned no job")
			}
			if n := len(rm.Tracker.byID); n != 0 {
				t.Errorf("%d of %d jobs (%d abandoned) still indexed after the run", n, len(jobs), m.JobsAbandoned)
			}
			draining += obs.draining
			drained += obs.drained
		})
	}
	if draining == 0 || drained == 0 {
		t.Errorf("abandonments with attempts running %d, without %d: want both > 0", draining, drained)
	}
}
