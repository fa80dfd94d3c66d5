package cp

import "testing"

// A 5000-task greedy descent must cost a few keys per node, not a scan of
// the model: pick evaluates every interval once when the descent starts and
// from then on only what the previous node changed.
func TestPerfLargeGreedy(t *testing.T) {
	m := NewModel(100_000_000)
	var ivs []*Interval
	var lates []*Bool
	for i := 0; i < 5000; i++ {
		iv := m.NewInterval("t", int64(1000+i%50000))
		iv.Due = 50_000_000
		ivs = append(ivs, iv)
		l := m.NewBool("late")
		m.AddLateness([]*Interval{iv}, iv.Due, l)
		lates = append(lates, l)
	}
	m.AddCumulative("map", -1, 64, ivs)
	m.Minimize(lates)
	r := NewSolver(m, Params{NodeLimit: 20_000}).Solve()
	perNode := float64(r.Search.PickWork) / float64(r.Search.Nodes)
	t.Logf("status=%v obj=%d nodes=%d pickwork/node=%.1f profilebuilds=%d elapsed=%v",
		r.Status, r.Objective, r.Search.Nodes, perNode, r.Search.ProfileBuilds, r.SolveTime)
	if !r.HasSolution() {
		t.Fatal("no solution")
	}
	if limit := 0.05 * float64(len(ivs)); perNode > limit {
		t.Fatalf("PickWork/Nodes = %.1f, want below %.0f (5%% of %d intervals)", perNode, limit, len(ivs))
	}
}
