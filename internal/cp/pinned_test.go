package cp

import (
	"slices"
	"testing"

	"mrcprm/internal/stats"
)

// pinnedSolve is one instance whose search counters are pinned. build
// resets the model it is given and builds the instance into it.
type pinnedSolve struct {
	name      string
	build     func(m *Model)
	nodeLimit func(m *Model) int64
	want      pinnedCounters
}

type pinnedCounters struct {
	Nodes, Backtracks, Propagations int64
	Objective                       int
}

func fixedLimit(n int64) func(*Model) int64 { return func(*Model) int64 { return n } }

// heteroInstance builds the direct model of a heterogeneous cluster:
// numRes resources in two speed classes (the first half twice as fast) and
// nJobs jobs of one to four maps and up to two reduces, the deadlines of
// successive jobs dueStep apart. Every task carries its duration table; each
// resource has a map and a reduce slot timetable and a memory timetable over
// the tasks with a memory demand. The instance is built into m, reset first.
func heteroInstance(m *Model, seed uint64, numRes, nJobs, dueStep int) *Model {
	rng := stats.NewStream(seed, 2)
	m.Reset(200_000)
	var mapAll, redAll, memTasks []*Interval
	var mems []int64
	var lates []*Bool
	task := func(name string, j int, due int64) *Interval {
		fast := int64(4 + rng.IntN(16))
		iv := m.NewInterval(name, 2*fast)
		iv.JobKey = j
		iv.Due = due
		m.NewResVar(iv, numRes)
		durs := make([]int64, numRes)
		for r := range durs {
			durs[r] = fast
			if r >= numRes/2 {
				durs[r] = 2 * fast
			}
		}
		m.SetResDurations(iv, durs)
		if mem := int64(rng.IntN(3)); mem > 0 {
			memTasks = append(memTasks, iv)
			mems = append(mems, mem)
		}
		return iv
	}
	for j := 0; j < nJobs; j++ {
		due := int64(40 + dueStep*j + rng.IntN(20))
		nm, nr := 1+rng.IntN(4), rng.IntN(3)
		var maps, reds []*Interval
		for range nm {
			maps = append(maps, task("m", j, due))
		}
		for range nr {
			reds = append(reds, task("r", j, due))
		}
		m.AddPhaseBarrier(maps, reds)
		terms := reds
		if len(terms) == 0 {
			terms = maps
		}
		late := m.NewBool("late")
		m.AddLateness(terms, due, late)
		lates = append(lates, late)
		mapAll = append(mapAll, maps...)
		redAll = append(redAll, reds...)
	}
	for r := 0; r < numRes; r++ {
		m.AddCumulative("map", r, 1, mapAll)
		m.AddCumulative("reduce", r, 1, redAll)
		m.AddCumulativeDemands("mem", r, 3, memTasks, mems)
	}
	m.Minimize(lates)
	return m
}

// sharedListInstance builds a direct model on numRes resources in two
// speed classes whose slot and memory timetables run over one task list:
// every task of nJobs jobs sits on each resource's slot timetable (capacity
// 2) and, with a demand of one to three, on its memory timetable (capacity
// 4). The instance is built into m, reset first.
func sharedListInstance(m *Model, seed uint64, numRes, nJobs int) *Model {
	rng := stats.NewStream(seed, 5)
	m.Reset(200_000)
	var all []*Interval
	var mems []int64
	var lates []*Bool
	for j := 0; j < nJobs; j++ {
		due := int64(30 + 6*j + rng.IntN(20))
		var maps, reds []*Interval
		for i := range 2 + rng.IntN(4) {
			fast := int64(4 + rng.IntN(16))
			iv := m.NewInterval("t", 2*fast)
			iv.JobKey, iv.Due = j, due
			m.NewResVar(iv, numRes)
			durs := make([]int64, numRes)
			for r := range durs {
				durs[r] = fast
				if r%2 == 1 {
					durs[r] = 2 * fast
				}
			}
			m.SetResDurations(iv, durs)
			if i < 2 {
				maps = append(maps, iv)
			} else {
				reds = append(reds, iv)
			}
			all = append(all, iv)
			mems = append(mems, int64(1+rng.IntN(3)))
		}
		m.AddPhaseBarrier(maps, reds)
		terms := reds
		if len(terms) == 0 {
			terms = maps
		}
		late := m.NewBool("late")
		m.AddLateness(terms, due, late)
		lates = append(lates, late)
	}
	for r := 0; r < numRes; r++ {
		m.AddCumulative("slot", r, 2, all)
		m.AddCumulativeDemands("mem", r, 4, all, mems)
	}
	m.Minimize(lates)
	return m
}

// frozenDownInstance is heteroInstance on numRes resources with resource 0
// down and the first frozen maps started: each is pinned at time 0 on a
// resource of its own, as a manager freezes the tasks that run, and every
// other task is barred from resource 0. The instance is built into m,
// reset first.
func frozenDownInstance(m *Model, seed uint64, numRes, nJobs, frozen int) *Model {
	heteroInstance(m, seed, numRes, nJobs, 1)
	r := 1
	for _, iv := range m.intervals {
		if iv.Name == "m" && r <= frozen {
			m.FixRes(iv.resVar, r)
			m.FixStart(iv, 0)
			r++
			continue
		}
		m.ForbidRes(iv.resVar, 0)
	}
	return m
}

// twoNodesPerTask is the node budget BenchmarkSolveCombined gives its large
// instances.
func twoNodesPerTask(m *Model) int64 { return 2 * int64(len(m.intervals)) }

var pinnedSolves = []pinnedSolve{
	{"combined 72 tasks", func(m *Model) { benchInstance(m, 12, 6) }, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 7536, Propagations: 13532, Objective: 3}},
	{"combined 501 tasks", func(m *Model) { benchInstance(m, 25, 20) }, twoNodesPerTask,
		pinnedCounters{Nodes: 1002, Backtracks: 0, Propagations: 2998, Objective: 16}},
	{"combined 2041 tasks", func(m *Model) { benchInstance(m, 100, 20) }, twoNodesPerTask,
		pinnedCounters{Nodes: 4082, Backtracks: 0, Propagations: 12012, Objective: 79}},
	{"direct", func(m *Model) { benchDirectInstance(m) }, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 7323, Propagations: 57314, Objective: 5}},
	{"overloaded", func(m *Model) {
		buildRandomInstance(m, stats.NewStream(77, 3), 80, 10, 12, 8, true)
	}, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 2374, Propagations: 24930, Objective: 68}},
	{"direct hetero + memory", func(m *Model) { heteroInstance(m, 4242, 4, 12, 8) }, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 7215, Propagations: 49517, Objective: 7}},
	// 70 resources make every resvar, and so every mode mask, two words wide.
	{"direct hetero + memory, 70 resources", func(m *Model) { heteroInstance(m, 4343, 70, 100, 1) }, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 511, Propagations: 538464, Objective: 1}},
	{"direct, slot and memory over one task list", func(m *Model) { sharedListInstance(m, 4545, 6, 16) }, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 7024, Propagations: 189401, Objective: 3}},
	{"direct hetero + memory, 70 resources, one down, frozen maps", func(m *Model) { frozenDownInstance(m, 4646, 70, 100, 12) }, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 624, Propagations: 537617, Objective: 1}},
}

// solvePinned builds p into m and solves it on p's node budget.
func solvePinned(m *Model, p pinnedSolve) Result {
	p.build(m)
	return NewSolver(m, Params{NodeLimit: p.nodeLimit(m)}).Solve()
}

func countersOf(r *Result) pinnedCounters {
	return pinnedCounters{r.Search.Nodes, r.Search.Backtracks, r.Search.Propagations, r.Objective}
}

// Performance work on the propagators and the search must leave the search
// itself alone: on the solver benchmarks' instances, the overloaded
// instance of TestPerNodeWorkDoesNotScaleWithModel, two heterogeneous
// direct models with memory timetables (resvars of one and of two words),
// a direct model whose slot and memory timetables share one task list and
// a two-word one with a down resource and frozen tasks, the node,
// backtrack and propagation counts and the objective are pinned. A change that means to
// alter the search re-pins this table and says so; one that only makes the
// search cheaper leaves it untouched.
func TestSearchCountersPinned(t *testing.T) {
	for _, p := range pinnedSolves {
		m := new(Model)
		p.build(m)
		r := NewSolver(m, Params{NodeLimit: p.nodeLimit(m)}).Solve()
		got := pinnedCounters{r.Search.Nodes, r.Search.Backtracks, r.Search.Propagations, r.Objective}
		if got != p.want {
			t.Errorf("%s (%d tasks): got %+v, pinned %+v", p.name, len(m.intervals), got, p.want)
		}
	}
}

// A model recycled through Reset searches exactly as a fresh one. Every
// pinned instance is solved on one model, in ascending and then descending
// size order, so a uniform model follows a heterogeneous one with memory
// timetables and the reverse, and narrow duration tables reuse wide ones.
// Each recycled build must give every interval the fresh build's duration
// table and, where it has one, modes, and each solve the fresh solve's counters, status,
// objective and assignment.
func TestRecycledModelMatchesFresh(t *testing.T) {
	fresh := make([]*Model, len(pinnedSolves))
	results := make([]Result, len(pinnedSolves))
	order := make([]int, len(pinnedSolves))
	for i, p := range pinnedSolves {
		fresh[i] = new(Model)
		results[i] = solvePinned(fresh[i], p)
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return len(fresh[a].intervals) - len(fresh[b].intervals) })
	descending := slices.Clone(order)
	slices.Reverse(descending)
	recycled := new(Model)
	for _, i := range append(order, descending...) {
		p, want := pinnedSolves[i], &results[i]
		p.build(recycled)
		for id, iv := range recycled.intervals {
			ref := fresh[i].intervals[id]
			if !slices.Equal(iv.Durations(), ref.Durations()) ||
				ref.Durations() != nil && !slices.Equal(iv.modes(), ref.modes()) {
				t.Fatalf("%s: interval %d has durations %v, modes %v; fresh %v, %v",
					p.name, id, iv.Durations(), iv.modes(), ref.Durations(), ref.modes())
			}
		}
		got := NewSolver(recycled, Params{NodeLimit: p.nodeLimit(recycled)}).Solve()
		switch {
		case countersOf(&got) != countersOf(want):
			t.Errorf("%s: recycled %+v, fresh %+v", p.name, countersOf(&got), countersOf(want))
		case got.Status != want.Status:
			t.Errorf("%s: recycled status %v, fresh %v", p.name, got.Status, want.Status)
		case !slices.Equal(got.Starts, want.Starts) || !slices.Equal(got.Res, want.Res) ||
			!slices.Equal(got.Lates, want.Lates):
			t.Errorf("%s: recycled assignment differs from the fresh model's", p.name)
		}
	}
}
