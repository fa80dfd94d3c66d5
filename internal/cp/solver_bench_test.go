package cp

import (
	"testing"

	"mrcprm/internal/stats"
)

// benchInstance builds one moderately hard combined-mode instance (the
// shape MRCP-RM generates) for the solver micro-benchmarks. Models are
// single-use, so every iteration builds a fresh one.
func benchInstance() *Model {
	rng := stats.NewStream(99, 1)
	return buildRandomInstance(rng, 12, 6, 3, 2, true).m
}

// benchDirectInstance builds a direct-mode instance with matchmaking
// variables, exercising pickResource and the per-resource cumulatives.
func benchDirectInstance() *Model {
	m := NewModel(200_000)
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
// outside the timer.
func benchSolve(b *testing.B, build func() *Model) {
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := build()
		b.StartTimer()
		r := NewSolver(m, Params{NodeLimit: 4000}).Solve()
		nodes += r.Nodes
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

func BenchmarkSolveCombined(b *testing.B) { benchSolve(b, benchInstance) }

func BenchmarkSolveDirect(b *testing.B) { benchSolve(b, benchDirectInstance) }
