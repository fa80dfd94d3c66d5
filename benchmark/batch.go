package main

import (
	"fmt"
	"runtime"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// batchSpec is the closed-system scenario: a few fixed job sets, each
// mapped in one core.SolveBatch call on one large model.
type batchSpec struct {
	gen       workload.SyntheticConfig
	instances int
	jobs      int // per instance
	cfg       core.Config
	rngTag    uint64
}

func (sp batchSpec) scaled(div int) batchSpec {
	sp.jobs = max(sp.jobs/div, 2)
	sp.cfg.NodeLimit = max(sp.cfg.NodeLimit/int64(div), 100)
	return sp
}

func (sp batchSpec) size() string {
	return fmt.Sprintf("instances=%d jobs=%d m=%d nodelimit=%d",
		sp.instances, sp.jobs, sp.gen.NumResources, sp.cfg.NodeLimit)
}

func (sp batchSpec) runRep(seed uint64, traced bool) (*rep, error) {
	r := &rep{attempted: sp.instances * sp.jobs}

	t0 := time.Now()
	cluster, _ := uniformCluster(sp.gen)
	sets := make([][]*workload.Job, sp.instances)
	tasks := 0
	for i := range sets {
		jobs, err := generate(sp.gen, sp.jobs, sp.rngTag+uint64(i), seed)
		if err != nil {
			return nil, err
		}
		sets[i] = jobs
		tasks += countTasks(jobs)
	}
	r.setup = time.Since(t0)
	genWall := r.setup

	var tr *tracer
	if traced {
		tr = newTracer(2*sp.instances + 1)
		tr.begin(spanRun, 0)
	}
	runtime.GC()
	mem0 := readMem()
	scheds := make([]*core.Schedule, len(sets))
	t1 := time.Now()
	for i, jobs := range sets {
		if traced {
			tr.begin(spanSolveBatch, int64(i))
		}
		c0 := time.Now()
		sched, err := core.SolveBatch(cluster, jobs, sp.cfg)
		d := time.Since(c0)
		if traced {
			// Where inside the call the solve sat cannot be seen from
			// outside; only its duration is measured, so the span is
			// anchored at the call's end.
			end := tr.now()
			if err == nil {
				tr.add(spanSolve, int64(i), end-int64(sched.SolveTime), end)
			}
			tr.end()
		}
		r.ops = append(r.ops, d)
		r.sched += d
		if err == nil {
			scheds[i] = sched
		}
	}
	if traced {
		tr.end()
	}
	r.run = time.Since(t1)
	r.mem = memSince(mem0)

	var late int
	var turnaroundMS int64
	fp := newFingerprint()
	for i, jobs := range sets {
		sched := scheds[i]
		if sched == nil || validateBatch(cluster, jobs, sched) != nil {
			// No usable schedule: every job of the instance counts as failed.
			r.failed += len(jobs)
			r.opNodes = append(r.opNodes, -1)
			continue
		}
		r.opNodes = append(r.opNodes, sched.Nodes)
		r.jobs += len(jobs)
		late += sched.Objective
		turnaroundMS += batchTurnaroundMS(jobs, sched)
		fp.add(int64(sched.Objective), int64(len(sched.Assignments)))
		for _, a := range sched.Assignments {
			fp.add(int64(a.Resource), a.Start)
		}
	}
	r.ontime = 1 - ratio(float64(late), float64(r.attempted))
	r.turnaround = ratio(float64(turnaroundMS)/1000, float64(r.jobs))
	r.fingerprint = fp.sum()
	if !traced {
		return r, nil
	}

	r.spans = tr.spans
	L := map[string]float64{
		"workload.gen_s": genWall.Seconds(),
		"workload.jobs":  float64(r.attempted),
		"workload.tasks": float64(tasks),
		"core.calls":     float64(sp.instances),
		"core.rounds":    float64(len(r.opNodes)),
	}
	spanLayers(tr.spans, r.run, L)
	var solves []solveEvent
	var useful int64
	for _, s := range scheds {
		if s == nil {
			continue
		}
		st := s.Search
		solves = append(solves, solveEvent{
			Nodes: st.Nodes, Backtracks: st.Backtracks, Propagations: st.Propagations,
			ImprovePasses: st.ImprovePasses, ImproveAccepts: st.ImproveAccepts,
			NodeLimitHit: st.NodeLimitHit, TimeLimitHit: st.TimeLimitHit,
			ModelTasks: len(s.Assignments),
			WallSolve:  float64(s.SolveTime) / 1e6, WallFirst: float64(st.TimeToFirst) / 1e6,
		})
		if n := len(st.Timeline); n > 0 {
			useful += st.Timeline[n-1].Nodes
		}
	}
	solveLayers(solves, useful, L)
	r.mem.layer(L)
	r.layer = L
	return r, nil
}

// validateBatch checks a batch schedule from outside: slot capacities,
// earliest starts and reduce-after-map precedence (Schedule.Validate), and
// that every task of every job was placed exactly once.
func validateBatch(cluster sim.Cluster, jobs []*workload.Job, s *core.Schedule) error {
	if err := s.Validate(cluster); err != nil {
		return err
	}
	seen := make(map[*workload.Task]bool, len(s.Assignments))
	for _, a := range s.Assignments {
		if seen[a.Task] {
			return fmt.Errorf("task %s placed twice", a.Task.ID)
		}
		seen[a.Task] = true
	}
	if want := countTasks(jobs); len(seen) != want {
		return fmt.Errorf("%d of %d tasks placed", len(seen), want)
	}
	return nil
}

// batchTurnaroundMS sums completion minus earliest start over the jobs of
// one batch schedule: the closed-system analogue of the paper's T.
func batchTurnaroundMS(jobs []*workload.Job, s *core.Schedule) int64 {
	done := make(map[int]int64, len(jobs))
	for _, a := range s.Assignments {
		if e := a.End(); e > done[a.Task.JobID] {
			done[a.Task.JobID] = e
		}
	}
	var sum int64
	for _, j := range jobs {
		sum += done[j.ID] - j.EarliestStart
	}
	return sum
}
