package sim_test

import (
	"fmt"
	"testing"

	"mrcprm/internal/core"
	"mrcprm/internal/faults"
	_ "mrcprm/internal/policies"
	"mrcprm/internal/rmkit"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// churnRM wraps a policy and, on every task completion, takes one placed
// but not yet started task of a live job, unschedules it and schedules it
// back where it was — the one Context transition no built-in policy makes.
// It also counts what the run exercised.
type churnRM struct {
	sim.ResourceManager
	jobs                   []*workload.Job
	unscheduled, evacuated int
}

func (c *churnRM) OnJobArrival(ctx sim.Context, j *workload.Job) error {
	c.jobs = append(c.jobs, j)
	return c.ResourceManager.OnJobArrival(ctx, j)
}

func (c *churnRM) OnTaskComplete(ctx sim.Context, t *workload.Task) error {
	if err := c.ResourceManager.OnTaskComplete(ctx, t); err != nil {
		return err
	}
	for _, j := range c.jobs {
		for _, pt := range j.Tasks() {
			st := ctx.Status(pt)
			if !st.Placed || st.Started {
				continue
			}
			if err := ctx.Unschedule(pt); err != nil {
				return err
			}
			c.unscheduled++
			return ctx.Schedule(pt, st.Res, st.Start)
		}
	}
	return nil
}

func (c *churnRM) OnResourceDown(ctx sim.Context, res int, killed, evacuated []*workload.Task) error {
	c.evacuated += len(evacuated)
	return c.ResourceManager.OnResourceDown(ctx, res, killed, evacuated)
}

// coverage observes the run so the test can insist that every transition
// the counters hang on actually happened.
type coverage struct {
	sim.NopObserver
	replans, slowdowns int
	abandoned          map[*workload.Job]bool
	// finishedAfterAbandon counts tasks of an abandoned job whose in-flight
	// attempt ran to completion afterwards.
	finishedAfterAbandon int
}

func (c *coverage) TaskFinished(_ int64, _ *workload.Task, j *workload.Job, _ int) {
	if c.abandoned[j] {
		c.finishedAfterAbandon++
	}
}

func (c *coverage) TaskScheduled(_ int64, _ *workload.Task, _ *workload.Job, _ int, _ int64, replan bool) {
	if replan {
		c.replans++
	}
}

func (c *coverage) TaskSlowdown(int64, *workload.Task, *workload.Job, int, int64, int64) {
	c.slowdowns++
}

func (c *coverage) JobCompleted(int64, *workload.Job, int64) {}

func (c *coverage) JobAbandoned(_ int64, j *workload.Job) { c.abandoned[j] = true }

// checkJobStatus compares each job's one-lookup JobStatus with the status
// of each of its tasks, maps then reduces.
func checkJobStatus(s *sim.Simulator, jobs []*workload.Job) error {
	var buf []sim.TaskStatus
	for _, j := range jobs {
		buf = s.JobStatus(j, buf[:0])
		if len(buf) != j.NumTasks() {
			return fmt.Errorf("job %d: JobStatus has %d tasks, the job %d", j.ID, len(buf), j.NumTasks())
		}
		for i, t := range j.Tasks() {
			if want := s.Status(t); buf[i] != want {
				return fmt.Errorf("job %d task %s: JobStatus %+v, Status %+v", j.ID, t.ID, buf[i], want)
			}
		}
	}
	return nil
}

// TestSampleCountersMatchScan is the sample oracle: on seeded, heavily
// faulted runs of every built-in policy family it compares, after every
// single Step, the seven sample fields, OutstandingJobs, the per-job
// uncompleted-map, placed-or-running and running counts, and the ledger's
// promised demand per resource,
// with a scan of the simulator's state (sim.CheckCounters), and every
// job's JobStatus with its tasks' Status (checkJobStatus). The runs are
// built to cross every transition a counter is updated at — first placement
// and replan, Unschedule, start, finish, failure, outage kill, outage
// evacuation, retry-cap abandonment with an attempt still in flight,
// resource down and up, AddJob mid-run — and the test fails if one of them
// never happened. The list policies also run on a memory-constrained
// cluster, where they place by the simulator's FirstFit on two dimensions.
func TestSampleCountersMatchScan(t *testing.T) {
	mrcp := core.DeterministicConfig()
	mrcp.NodeLimit = 2000

	for _, run := range []struct {
		name, policy string
		memCap       int64
	}{{"fifo", "fifo", 0}, {"minedf", "minedf", 0}, {"mrcp", "mrcp", 0}, {"fifo-memory", "fifo", 8}, {"minedf-memory", "minedf", 8}} {
		gen := workload.DefaultSynthetic()
		gen.NumResources = 4
		gen.NumMapHi = 8
		gen.NumReduceHi = 4
		gen.Lambda = 0.05
		if run.memCap > 0 {
			gen.TaskMemLo, gen.TaskMemHi = 1, 4
		}
		cluster := sim.Cluster{NumResources: gen.NumResources,
			MapSlots: gen.MapSlotsPerResource, ReduceSlots: gen.ReduceSlotsPerResource, MemCapacity: run.memCap}
		policy := run.policy
		t.Run(run.name, func(t *testing.T) {
			for seed := uint64(5); seed <= 9; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					jobs, err := gen.Generate(60, stats.NewStream(21, 0xc0de))
					if err != nil {
						t.Fatal(err)
					}
					// Outages fall inside the arrival span, where the cluster is busy.
					horizon := jobs[len(jobs)-1].Arrival
					plan, err := faults.New(faults.Config{
						TaskFailureProb: 0.15,
						StragglerProb:   0.10,
						MTBFMs:          float64(horizon) / 4,
						MTTRMs:          40_000,
						OutageHorizonMs: horizon,
						NumResources:    cluster.NumResources,
						Seed1:           seed, Seed2: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					// One retry per task: with a 15 % failure rate some job runs
					// out while its sibling tasks are still executing.
					inner, err := rmkit.New(policy, cluster, rmkit.Options{
						Retry: &rmkit.RetryPolicy{MaxTaskRetries: 1}, Extra: mrcp})
					if err != nil {
						t.Fatal(err)
					}
					rm := &churnRM{ResourceManager: inner}
					cov := &coverage{abandoned: make(map[*workload.Job]bool)}

					// The first job is pre-loaded; every later one is added once its
					// predecessor has arrived, i.e. while the run is executing.
					s, err := sim.New(cluster, rm, jobs[:1])
					if err != nil {
						t.Fatal(err)
					}
					if err := s.SetFaultInjector(plan); err != nil {
						t.Fatal(err)
					}
					s.AddObserver(cov)
					if err := sim.CheckCounters(s); err != nil {
						t.Fatalf("before the first step: %v", err)
					}
					next := 1
					for step := 0; ; step++ {
						more, err := s.Step()
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						if err := sim.CheckCounters(s); err != nil {
							t.Fatalf("after step %d (t=%d): %v", step, s.Now(), err)
						}
						if err := checkJobStatus(s, jobs[:next]); err != nil {
							t.Fatalf("after step %d (t=%d): %v", step, s.Now(), err)
						}
						for next < len(jobs) && s.CurrentMetrics().JobsArrived >= next {
							if err := s.AddJob(jobs[next]); err != nil {
								t.Fatal(err)
							}
							next++
							more = true
							if err := sim.CheckCounters(s); err != nil {
								t.Fatalf("after AddJob %d at step %d: %v", next-1, step, err)
							}
						}
						if !more {
							break
						}
					}
					m, err := s.Finish()
					if err != nil {
						t.Fatal(err)
					}
					if s.OutstandingJobs() != 0 {
						t.Fatalf("%d jobs outstanding after the run", s.OutstandingJobs())
					}

					t.Logf("failed=%d killed=%d retried=%d slowdowns=%d outages=%d evacuated=%d replans=%d unscheduled=%d abandoned=%d finishedAfterAbandon=%d",
						m.TasksFailed, m.TasksKilled, m.TasksRetried, cov.slowdowns, m.Outages, rm.evacuated,
						cov.replans, rm.unscheduled, m.JobsAbandoned, cov.finishedAfterAbandon)
					for what, n := range map[string]int{
						"task failures":                     m.TasksFailed,
						"outage kills":                      m.TasksKilled,
						"retried attempts":                  m.TasksRetried,
						"stragglers":                        cov.slowdowns,
						"outages":                           m.Outages,
						"Unschedule calls":                  rm.unscheduled,
						"abandoned jobs":                    m.JobsAbandoned,
						"completed jobs":                    m.JobsCompleted,
						"finishes after the job's abandon":  cov.finishedAfterAbandon,
						"jobs added while the run executed": next - 1,
					} {
						if n == 0 {
							t.Errorf("the run exercised no %s", what)
						}
					}
					if policy == "mrcp" {
						// Only the planning policy holds placements in the future,
						// so only it replans them and has them evacuated.
						if cov.replans == 0 || rm.evacuated == 0 {
							t.Errorf("replans=%d evacuated=%d, want both > 0", cov.replans, rm.evacuated)
						}
					}
				})
			}
		})
	}
}
