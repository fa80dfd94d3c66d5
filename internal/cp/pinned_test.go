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

// twoNodesPerTask is the node budget BenchmarkSolveCombined gives its large
// instances.
func twoNodesPerTask(m *Model) int64 { return 2 * int64(len(m.intervals)) }

var pinnedSolves = []pinnedSolve{
	{"combined 72 tasks", func() *Model { return benchInstance(12, 6) }, fixedLimit(4000),
		pinnedCounters{Nodes: 4000, Backtracks: 7538, Propagations: 13536, Objective: 3}},
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
}

// Performance work on the propagators and the search must leave the search
// itself alone: on the solver benchmarks' instances and the overloaded
// instance of TestPerNodeWorkDoesNotScaleWithModel, the node, backtrack and
// propagation counts and the objective are pinned. A change that means to
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
