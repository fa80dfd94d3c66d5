package cp

import (
	"testing"

	"mrcprm/internal/stats"
)

// pinnedSolve is one instance whose search counters are pinned.
type pinnedSolve struct {
	name      string
	build     func() *Model
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
// the tasks with a memory demand.
func heteroInstance(seed uint64, numRes, nJobs, dueStep int) *Model {
	rng := stats.NewStream(seed, 2)
	m := NewModel(200_000)
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

// twoNodesPerTask is the node budget BenchmarkSolveCombined gives its large
// instances.
func twoNodesPerTask(m *Model) int64 { return 2 * int64(len(m.intervals)) }

var pinnedSolves = []pinnedSolve{
	{"combined 72 tasks", func() *Model { return benchInstance(12, 6) }, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 7536, Propagations: 13532, Objective: 3}},
	{"combined 501 tasks", func() *Model { return benchInstance(25, 20) }, twoNodesPerTask,
		pinnedCounters{Nodes: 1002, Backtracks: 0, Propagations: 2998, Objective: 16}},
	{"combined 2041 tasks", func() *Model { return benchInstance(100, 20) }, twoNodesPerTask,
		pinnedCounters{Nodes: 4082, Backtracks: 0, Propagations: 12012, Objective: 79}},
	{"direct", benchDirectInstance, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 7323, Propagations: 57314, Objective: 5}},
	{"overloaded", func() *Model {
		return buildRandomInstance(stats.NewStream(77, 3), 80, 10, 12, 8, true).m
	}, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 2374, Propagations: 24930, Objective: 68}},
	{"direct hetero + memory", func() *Model { return heteroInstance(4242, 4, 12, 8) }, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 7215, Propagations: 49517, Objective: 7}},
	// 70 resources make every resvar, and so every mode mask, two words wide.
	{"direct hetero + memory, 70 resources", func() *Model { return heteroInstance(4343, 70, 100, 1) }, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 511, Propagations: 538464, Objective: 1}},
}

// Performance work on the propagators and the search must leave the search
// itself alone: on the solver benchmarks' instances, the overloaded
// instance of TestPerNodeWorkDoesNotScaleWithModel and two heterogeneous
// direct models with memory timetables (resvars of one and of two words),
// the node, backtrack and propagation counts and the objective are pinned. A change that means to
// alter the search re-pins this table and says so; one that only makes the
// search cheaper leaves it untouched.
func TestSearchCountersPinned(t *testing.T) {
	for _, p := range pinnedSolves {
		m := p.build()
		r := NewSolver(m, Params{NodeLimit: p.nodeLimit(m)}).Solve()
		got := pinnedCounters{r.Search.Nodes, r.Search.Backtracks, r.Search.Propagations, r.Objective}
		if got != p.want {
			t.Errorf("%s (%d tasks): got %+v, pinned %+v", p.name, len(m.intervals), got, p.want)
		}
	}
}
