package cp

import (
	"fmt"
	"testing"

	"mrcprm/internal/stats"
)

// benchInstance builds one moderately hard combined-mode instance (the
// shape MRCP-RM generates) of nJobs jobs of about 2*maxTasks tasks for the
// solver micro-benchmarks, on capacities that grow with nJobs so the load
// per slot stays put. The instance is built into m, reset first.
func benchInstance(m *Model, nJobs, maxTasks int) *Model {
	rng := stats.NewStream(99, 1)
	k := int64(nJobs+11) / 12
	return buildRandomInstance(m, rng, nJobs, maxTasks, 3*k, 2*k, true).m
}

// benchDirectInstance builds a direct-mode instance with matchmaking
// variables, exercising pickResource and the per-resource cumulatives, into
// m, reset first.
func benchDirectInstance(m *Model) *Model {
	m.Reset(200_000)
	const numRes = 4
	var all []*Interval
	var lates []*Bool
	for j := 0; j < 10; j++ {
		var ivs []*Interval
		for i := 0; i < 5; i++ {
			iv := m.NewInterval("t", int64(10+3*i+2*j))
			iv.JobKey = j
			iv.Due = int64(80 + 15*j)
			m.NewResVar(iv, numRes)
			ivs = append(ivs, iv)
			all = append(all, iv)
		}
		late := m.NewBool("late")
		m.AddLateness(ivs, ivs[0].Due, late)
		lates = append(lates, late)
	}
	for r := 0; r < numRes; r++ {
		m.AddCumulative("res", r, 1, all)
	}
	m.Minimize(lates)
	return m
}

// benchSolve measures one full solve per iteration; the instance is rebuilt
// outside the timer into one recycled model, as a manager rebuilds its
// model on every reschedule. Next to the time and allocations per solve it
// reports the nodes searched and the time per node.
func benchSolve(b *testing.B, nodeLimit int64, build func(m *Model) *Model) {
	b.ReportAllocs()
	var nodes int64
	m := new(Model)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		build(m)
		b.StartTimer()
		r := NewSolver(m, Params{NodeLimit: nodeLimit}).Solve()
		nodes += r.Search.Nodes
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}

// BenchmarkSolveCombined solves the same generator's instance at three
// sizes. The small one spends its 4000 nodes backtracking. The two large
// ones (about 500 and 2000 tasks) get two nodes per task — the first
// descent and one improvement pass, the regime of a reschedule — so their
// ns/node compare like for like as the model quadruples. Choosing the next
// task and keeping the profile no longer grow with the model; what is left
// of the growth is the cumulative's sweep over all its tasks whenever a
// region of the profile saturates.
func BenchmarkSolveCombined(b *testing.B) {
	for _, size := range []struct {
		nJobs, maxTasks int
		nodesPerTask    int64
	}{{12, 6, 0}, {25, 20, 2}, {100, 20, 2}} {
		tasks := len(benchInstance(new(Model), size.nJobs, size.maxTasks).intervals)
		nodeLimit := int64(4000)
		if size.nodesPerTask > 0 {
			nodeLimit = size.nodesPerTask * int64(tasks)
		}
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			benchSolve(b, nodeLimit, func(m *Model) *Model { return benchInstance(m, size.nJobs, size.maxTasks) })
		})
	}
}

func BenchmarkSolveDirect(b *testing.B) { benchSolve(b, 4000, benchDirectInstance) }

// BenchmarkSolveHetero solves a direct model of the hetero-stream shape: 50
// resources in two speed classes, map, reduce and memory timetables per
// resource and about 120 tasks, each with a duration table, on that
// workload's node limit. Unlike BenchmarkSolveDirect's uniform tasks, every
// end bound here reads a duration table.
func BenchmarkSolveHetero(b *testing.B) {
	benchSolve(b, 1000, func(m *Model) *Model { return heteroInstance(m, 5050, 50, 34, 1) })
}
