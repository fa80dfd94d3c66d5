package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mrcprm/internal/cp"
	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

// batchCase is one SolveBatch call of the pooled-round sequence.
type batchCase struct {
	name    string
	cluster sim.Cluster
	jobs    []*workload.Job
}

// pooledSequence alternates the three kinds of batch model — combined,
// direct on two speed classes with a memory timetable, and workflows with
// task precedence — and runs each large, then small, then large again, so a
// recycled round is refilled both below and above what it last held.
func pooledSequence(t *testing.T) []batchCase {
	t.Helper()
	// Ten resources take the synthetic jobs of a fifty-resource generator,
	// as in the Table 1 batch: enough contention to search.
	gen := workload.DefaultSynthetic()
	combined := sim.Cluster{NumResources: 10,
		MapSlots: gen.MapSlotsPerResource, ReduceSlots: gen.ReduceSlotsPerResource}
	spec := TwoClassSpec(4, 2, 2, 2)
	spec.MemCapacity = 8
	hetero, err := spec.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	memGen := gen
	memGen.TaskMemLo, memGen.TaskMemHi = 1, 4
	synthetic := func(g workload.SyntheticConfig, n int, seed uint64) []*workload.Job {
		jobs, err := g.Generate(n, stats.NewStream(61, seed))
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	workflows := func(n int, seed uint64) []*workload.Job {
		rng := stats.NewStream(62, seed)
		var wfs []*workload.Job
		for id := range n {
			w := workload.NewWorkflow(id, int64(rng.IntN(5000)), 0)
			var prev []*workload.Task
			for i := range 3 + rng.IntN(6) {
				pool := workload.MapTask
				if rng.IntN(3) == 0 {
					pool = workload.ReduceTask
				}
				task := w.AddTask(fmt.Sprintf("w%d_%d", id, i), pool, int64(1000+rng.IntN(20_000)))
				for _, p := range prev {
					if rng.IntN(3) == 0 {
						if err := w.AddDep(p, task); err != nil {
							t.Fatal(err)
						}
					}
				}
				prev = append(prev, task)
			}
			w.Deadline = w.EarliestStart + w.CriticalPath()*int64(1+rng.IntN(3))
			wfs = append(wfs, w)
		}
		return wfs
	}
	wfCluster := sim.Cluster{NumResources: 3, MapSlots: 2, ReduceSlots: 1}
	var seq []batchCase
	for i, size := range []string{"large", "small", "large"} {
		nJobs, nHetero, nWf := 12, 6, 10
		if size == "small" {
			nJobs, nHetero, nWf = 2, 1, 2
		}
		seed := uint64(i)
		seq = append(seq,
			batchCase{"combined " + size, combined, synthetic(gen, nJobs, seed)},
			batchCase{"two-class direct with memory " + size, hetero, synthetic(memGen, nHetero, seed)},
			batchCase{"workflows " + size, wfCluster, workflows(nWf, seed)},
		)
	}
	return seq
}

// batchOutcome is what a batch solve decides: the assignments, the
// objective and late jobs, and the search counters without wall times.
type batchOutcome struct {
	Assignments []string
	LateJobs    []int
	Objective   int
	Optimal     bool
	Search      cp.SearchStats
}

func outcomeOf(s *Schedule) batchOutcome {
	o := batchOutcome{LateJobs: s.LateJobs, Objective: s.Objective, Optimal: s.Optimal, Search: s.Search}
	for _, a := range s.Assignments {
		o.Assignments = append(o.Assignments,
			fmt.Sprintf("%s/%d@%d on %d for %d", a.Task.ID, a.Job.ID, a.Start, a.Resource, a.Dur))
	}
	o.Search.TimeToFirst = 0
	o.Search.Timeline = append([]cp.ObjectiveStep(nil), s.Search.Timeline...)
	for i := range o.Search.Timeline {
		o.Search.Timeline[i].Wall = 0
	}
	return o
}

func batchConfig() Config {
	cfg := deterministicConfig()
	cfg.NodeLimit = 4000
	return cfg
}

// freshOutcomes solves every case of seq in a round of its own.
func freshOutcomes(t *testing.T, seq []batchCase) []batchOutcome {
	t.Helper()
	want := make([]batchOutcome, len(seq))
	for i, c := range seq {
		s, err := solveBatch(new(round), c.cluster, c.jobs, batchConfig())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := s.Validate(c.cluster); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = outcomeOf(s)
		t.Logf("%s: %d tasks, %v", c.name, len(s.Assignments), &s.Search)
	}
	return want
}

// A batch solve in a recycled round decides exactly what it decides in a
// fresh one, whatever the round held before: combined, direct two-class
// with memory and workflow models, large, small and large again, all in
// one round.
func TestPooledRoundMatchesFresh(t *testing.T) {
	seq := pooledSequence(t)
	want := freshOutcomes(t, seq)
	rd := new(round)
	for pass := range 2 {
		for i, c := range seq {
			s, err := solveBatch(rd, c.cluster, c.jobs, batchConfig())
			if err != nil {
				t.Fatalf("pass %d, %s: %v", pass, c.name, err)
			}
			if got := outcomeOf(s); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("pass %d, %s: the recycled round decided\n%+v\nwant\n%+v", pass, c.name, got, want[i])
			}
		}
	}
	nodes := int64(0)
	for _, o := range want {
		nodes += o.Search.Nodes
	}
	if nodes == 0 {
		t.Fatal("the sequence ran no search")
	}
}

// Concurrent SolveBatch calls each take their own round from the pool:
// every goroutine's sequence decides what fresh rounds decide. Run under
// -race, this also shows no two calls share a round.
func TestPooledRoundConcurrent(t *testing.T) {
	seq := pooledSequence(t)
	want := freshOutcomes(t, seq)
	const workers = 3
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range seq {
				i := (k + w) % len(seq)
				s, err := SolveBatch(seq[i].cluster, seq[i].jobs, batchConfig())
				if err != nil {
					errs <- fmt.Errorf("worker %d, %s: %v", w, seq[i].name, err)
					return
				}
				if !reflect.DeepEqual(outcomeOf(s), want[i]) {
					errs <- fmt.Errorf("worker %d, %s: decisions differ from a fresh round", w, seq[i].name)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A repeated batch solve of one instance rebuilds its model in the round
// it recycles and allocates only what its Schedule and the solve's results
// own: the assignments, each incumbent's Result, the improvement timeline,
// the solver and a few small slices. On this 20-job combined instance
// (2,270 tasks) that is 20 allocations; a fresh round costs over 8,000.
// The count is taken on one round handed to solveBatch, the body of
// SolveBatch: the pool SolveBatch takes its round from may be emptied by a
// collection, and under the race detector it drops rounds at random.
func TestSolveBatchAllocations(t *testing.T) {
	gen := workload.DefaultSynthetic()
	jobs, err := gen.Generate(20, stats.NewStream(17, 18))
	if err != nil {
		t.Fatal(err)
	}
	cluster := sim.Cluster{NumResources: 10,
		MapSlots: gen.MapSlotsPerResource, ReduceSlots: gen.ReduceSlotsPerResource}
	cfg := batchConfig()
	rd := new(round)
	var s *Schedule
	allocs := testing.AllocsPerRun(3, func() {
		if s, err = solveBatch(rd, cluster, jobs, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d jobs, %d tasks: %.0f allocations per batch solve in a recycled round (%d solutions)",
		len(jobs), len(s.Assignments), allocs, s.Search.Solutions)
	if limit := float64(40); allocs > limit {
		t.Fatalf("a repeated batch solve made %.0f allocations, limit %.0f", allocs, limit)
	}
}
