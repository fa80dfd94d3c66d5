package cp

import (
	"testing"
	"testing/quick"

	"mrcprm/internal/stats"
)

// Property-based tests: random MapReduce-shaped models must always produce
// solutions that the independent verifier accepts, and the solver's
// incremental caches must never diverge from a from-scratch evaluation.

// randomInstance describes a generated test model.
type randomInstance struct {
	m     *Model
	lates []*Bool
}

// buildRandomInstance builds into m, reset first, a model with nJobs jobs
// on one combined map/reduce resource pair, mimicking the structure MRCP-RM
// generates.
func buildRandomInstance(m *Model, rng *stats.Stream, nJobs, maxTasks int, mapCap, redCap int64, tight bool) *randomInstance {
	horizon := int64(1_000_000)
	m.Reset(horizon)
	var mapAll, redAll []*Interval
	var lates []*Bool
	for j := 0; j < nJobs; j++ {
		est := int64(rng.IntN(1000))
		nm := 1 + rng.IntN(maxTasks)
		nr := rng.IntN(maxTasks)
		var maps, reds []*Interval
		var work int64
		for i := 0; i < nm; i++ {
			iv := m.NewInterval("m", int64(1+rng.IntN(100)))
			iv.JobKey = j
			m.SetStartBounds(iv, est, horizon-iv.Dur)
			maps = append(maps, iv)
			work += iv.Dur
		}
		for i := 0; i < nr; i++ {
			iv := m.NewInterval("r", int64(1+rng.IntN(100)))
			iv.JobKey = j
			m.SetStartBounds(iv, est, horizon-iv.Dur)
			reds = append(reds, iv)
			work += iv.Dur
		}
		slack := int64(4)
		if tight {
			slack = 1
		}
		deadline := est + work*slack/2 + int64(rng.IntN(200)) + 1
		for _, iv := range maps {
			iv.Due = deadline
		}
		for _, iv := range reds {
			iv.Due = deadline
		}
		m.AddPhaseBarrier(maps, reds)
		terms := reds
		if len(terms) == 0 {
			terms = maps
		}
		late := m.NewBool("late")
		m.AddLateness(terms, deadline, late)
		lates = append(lates, late)
		mapAll = append(mapAll, maps...)
		redAll = append(redAll, reds...)
	}
	m.AddCumulative("map", -1, mapCap, mapAll)
	if len(redAll) > 0 {
		m.AddCumulative("reduce", -1, redCap, redAll)
	}
	m.Minimize(lates)
	return &randomInstance{m: m, lates: lates}
}

func TestQuickRandomInstancesVerify(t *testing.T) {
	rng := stats.NewStream(1001, 7)
	f := func(seed uint16) bool {
		local := rng.Derive(uint64(seed))
		inst := buildRandomInstance(new(Model), local, 1+local.IntN(6), 4, int64(1+local.IntN(3)), int64(1+local.IntN(3)), seed%2 == 0)
		r := NewSolver(inst.m, Params{NodeLimit: 3000}).Solve()
		if !r.HasSolution() {
			return false
		}
		return inst.m.VerifySolution(&r) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// buildRandomDirectInstance creates a direct-mode model: up to maxJobs jobs
// of up to four tasks, each task with a matchmaking variable over 2..4
// unit-capacity resources. With hetero set, every task also carries a
// per-resource duration table and a memory demand (zero for some) on a
// second, capacity-3 cumulative per resource that lists only the tasks
// with a demand — so a task's position differs from one timetable to the
// next. It returns the instance, its intervals and the resource count.
func buildRandomDirectInstance(local *stats.Stream, maxJobs int, hetero bool) (*randomInstance, []*Interval, int) {
	horizon := int64(100_000)
	m := NewModel(horizon)
	numRes := 2 + local.IntN(3)
	var all, memTasks []*Interval
	var mems []int64
	var lates []*Bool
	nJobs := 1 + local.IntN(maxJobs)
	for j := 0; j < nJobs; j++ {
		n := 1 + local.IntN(4)
		var ivs []*Interval
		for i := 0; i < n; i++ {
			dur := int64(1 + local.IntN(50))
			var durs []int64
			if hetero {
				durs = make([]int64, numRes)
				for r := range durs {
					durs[r] = dur + int64(local.IntN(20))
				}
				for _, d := range durs {
					dur = max(dur, d) // created at the slowest mode
				}
			}
			iv := m.NewInterval("t", dur)
			iv.JobKey = j
			iv.Due = int64(100 + local.IntN(400))
			m.NewResVar(iv, numRes)
			if hetero {
				m.SetResDurations(iv, durs)
				if mem := int64(local.IntN(3)); mem > 0 {
					memTasks = append(memTasks, iv)
					mems = append(mems, mem)
				}
			}
			ivs = append(ivs, iv)
			all = append(all, iv)
		}
		late := m.NewBool("late")
		m.AddLateness(ivs, ivs[0].Due, late)
		lates = append(lates, late)
	}
	for r := 0; r < numRes; r++ {
		m.AddCumulative("res", r, 1, all)
		if len(memTasks) > 0 {
			m.AddCumulativeDemands("mem", r, 3, memTasks, mems)
		}
	}
	m.Minimize(lates)
	return &randomInstance{m: m, lates: lates}, all, numRes
}

func TestQuickRandomDirectModeVerify(t *testing.T) {
	rng := stats.NewStream(2002, 9)
	f := func(seed uint16) bool {
		inst, all, numRes := buildRandomDirectInstance(rng.Derive(uint64(seed)), 4, seed%3 == 0)
		m := inst.m
		res := NewSolver(m, Params{NodeLimit: 3000}).Solve()
		if !res.HasSolution() {
			return false
		}
		if m.VerifySolution(&res) != nil {
			return false
		}
		// Every task must have a concrete resource.
		for _, iv := range all {
			if res.Res[iv.ID()] < 0 || res.Res[iv.ID()] >= numRes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the solver is deterministic — equal inputs give equal outputs,
// including node counts, when no wall-clock limit is set.
func TestQuickSolverDeterminism(t *testing.T) {
	f := func(seed uint16) bool {
		build := func() *randomInstance {
			local := stats.NewStream(31, uint64(seed))
			return buildRandomInstance(new(Model), local, 3, 3, 2, 2, true)
		}
		r1 := NewSolver(build().m, Params{NodeLimit: 2000}).Solve()
		r2 := NewSolver(build().m, Params{NodeLimit: 2000}).Solve()
		if r1.Status != r2.Status || r1.Objective != r2.Objective || r1.Search.Nodes != r2.Search.Nodes {
			return false
		}
		for i := range r1.Starts {
			if r1.Starts[i] != r2.Starts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding slack to every deadline never increases the optimal
// number of late jobs (monotonicity of the objective in deadlines).
func TestQuickDeadlineMonotonicity(t *testing.T) {
	f := func(seed uint16) bool {
		solveWith := func(extra int64) int {
			local := stats.NewStream(77, uint64(seed))
			horizon := int64(1_000_000)
			m := NewModel(horizon)
			var all []*Interval
			var lates []*Bool
			for j := 0; j < 3; j++ {
				n := 1 + local.IntN(3)
				var ivs []*Interval
				var work int64
				est := int64(local.IntN(100))
				for i := 0; i < n; i++ {
					iv := m.NewInterval("t", int64(1+local.IntN(60)))
					iv.JobKey = j
					m.SetStartBounds(iv, est, horizon-iv.Dur)
					ivs = append(ivs, iv)
					all = append(all, iv)
					work += iv.Dur
				}
				deadline := est + work/2 + int64(local.IntN(100)) + 1 + extra
				for _, iv := range ivs {
					iv.Due = deadline
				}
				late := m.NewBool("late")
				m.AddLateness(ivs, deadline, late)
				lates = append(lates, late)
			}
			m.AddCumulative("r", -1, 2, all)
			m.Minimize(lates)
			r := NewSolver(m, Params{NodeLimit: 20000}).Solve()
			if r.Status != StatusOptimal {
				return -1 // skip non-proven cases
			}
			return r.Objective
		}
		base := solveWith(0)
		loose := solveWith(500)
		if base < 0 || loose < 0 {
			return true
		}
		return loose <= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// buildFrozenInstance creates one frozen (already started) task and one to
// five free ones sharing a capacity-1 resource.
func buildFrozenInstance(local *stats.Stream) (m *Model, frozen *Interval, frozenStart int64) {
	m = NewModel(100_000)
	frozenStart = int64(local.IntN(500))
	frozen = m.NewInterval("frozen", int64(1+local.IntN(200)))
	m.FixStart(frozen, frozenStart)
	all := []*Interval{frozen}
	for i := 0; i < 1+local.IntN(5); i++ {
		all = append(all, m.NewInterval("t", int64(1+local.IntN(100))))
	}
	m.AddCumulative("r", -1, 1, all)
	return m, frozen, frozenStart
}

// Property: frozen (fixed) intervals are never moved by the solver.
func TestQuickFrozenTasksImmutable(t *testing.T) {
	rng := stats.NewStream(909, 11)
	f := func(seed uint16) bool {
		m, frozen, frozenStart := buildFrozenInstance(rng.Derive(uint64(seed)))
		r := NewSolver(m, Params{NodeLimit: 2000}).Solve()
		if !r.HasSolution() {
			return false
		}
		return r.Starts[frozen.ID()] == frozenStart && m.VerifySolution(&r) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
