package cp

import (
	"strings"
	"testing"
)

// tightModel builds an instance with deadline pressure so the search runs
// through improvement and branch-and-bound, populating every counter.
func tightModel(n int) *Model {
	m := NewModel(100000)
	var ivs []*Interval
	var lates []*Bool
	for i := 0; i < n; i++ {
		iv := m.NewInterval("t", 10)
		iv.JobKey = i
		iv.Due = 35
		ivs = append(ivs, iv)
		l := m.NewBool("late")
		m.AddLateness([]*Interval{iv}, 35, l)
		lates = append(lates, l)
	}
	m.AddCumulative("r", -1, 1, ivs)
	m.Minimize(lates)
	return m
}

func TestSearchStatsPopulated(t *testing.T) {
	r := solveOK(t, tightModel(8), Params{})
	st := r.Search
	if st.Nodes == 0 || st.Rounds == 0 {
		t.Errorf("Nodes=%d Rounds=%d; a solve that searched must count both", st.Nodes, st.Rounds)
	}
	if last := st.Timeline; len(last) > 0 && last[len(last)-1].Nodes > st.Nodes {
		t.Errorf("timeline reaches %d nodes, Search.Nodes = %d", last[len(last)-1].Nodes, st.Nodes)
	}
	if st.Propagations == 0 {
		t.Error("Propagations = 0; propagation engine ran, counter must be nonzero")
	}
	if st.Solutions == 0 || len(st.Timeline) == 0 {
		t.Fatalf("Solutions=%d Timeline=%d; a solved instance must record incumbents",
			st.Solutions, len(st.Timeline))
	}
	if st.FirstObjective != st.Timeline[0].Objective {
		t.Errorf("FirstObjective = %d, Timeline[0].Objective = %d",
			st.FirstObjective, st.Timeline[0].Objective)
	}
	for i := 1; i < len(st.Timeline); i++ {
		if st.Timeline[i].Objective >= st.Timeline[i-1].Objective {
			t.Errorf("timeline not strictly improving at step %d: %d -> %d",
				i, st.Timeline[i-1].Objective, st.Timeline[i].Objective)
		}
		if st.Timeline[i].Nodes < st.Timeline[i-1].Nodes {
			t.Errorf("timeline node counts regress at step %d", i)
		}
	}
	if last := st.Timeline[len(st.Timeline)-1].Objective; last != r.Objective {
		t.Errorf("final timeline objective %d != result objective %d", last, r.Objective)
	}
	if st.TimeToFirst <= 0 {
		t.Errorf("TimeToFirst = %v, want > 0", st.TimeToFirst)
	}
}

func TestSearchStatsLimitFlags(t *testing.T) {
	r := NewSolver(tightModel(30), Params{NodeLimit: 200}).Solve()
	if !r.HasSolution() {
		t.Fatalf("expected incumbent, got %v", r.Status)
	}
	if !r.Search.NodeLimitHit {
		t.Error("NodeLimitHit = false after exhausting a 200-node budget")
	}
	if !r.Search.LimitHit() {
		t.Error("LimitHit() = false, want true")
	}
	if r.Search.TimeLimitHit {
		t.Error("TimeLimitHit = true with no time limit set")
	}

	r = solveOK(t, tightModel(4), Params{})
	if r.Search.LimitHit() {
		t.Errorf("LimitHit() = true on an easy optimal solve: %+v", r.Search)
	}
}

func TestSearchStatsString(t *testing.T) {
	r := solveOK(t, tightModel(8), Params{})
	s := r.Search.String()
	for _, want := range []string{"nodes", "backtracks", "propagations", "solutions",
		"pick work", "profile builds", "sweep work"} {
		if !strings.Contains(s, want) {
			t.Errorf("SearchStats.String() = %q, missing %q", s, want)
		}
	}
	rs := r.String()
	if !strings.Contains(rs, s) || !strings.Contains(rs, "obj=") {
		t.Errorf("Result.String() = %q, want status/objective plus search stats", rs)
	}
}
