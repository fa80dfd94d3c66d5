package cp

import (
	"math"
	"testing"

	"mrcprm/internal/stats"
)

func solveOK(t *testing.T, m *Model, p Params) Result {
	t.Helper()
	r := NewSolver(m, p).Solve()
	if !r.HasSolution() {
		t.Fatalf("no solution: status %v", r.Status)
	}
	if err := m.VerifySolution(&r); err != nil {
		t.Fatalf("solution does not verify: %v", err)
	}
	return r
}

func TestSolveSingleTask(t *testing.T) {
	m := NewModel(1000)
	iv := m.NewInterval("t", 10)
	m.SetStartBounds(iv, 25, 500)
	m.AddCumulative("r", -1, 1, []*Interval{iv})
	r := solveOK(t, m, Params{})
	if r.Starts[iv.ID()] != 25 {
		t.Fatalf("start = %d, want earliest 25", r.Starts[iv.ID()])
	}
	if r.Status != StatusOptimal {
		t.Fatalf("status %v", r.Status)
	}
}

func TestSolveSequencesOnCapacityOne(t *testing.T) {
	m := NewModel(1000)
	var ivs []*Interval
	for i := 0; i < 5; i++ {
		ivs = append(ivs, m.NewInterval("t", 10))
	}
	m.AddCumulative("r", -1, 1, ivs)
	r := solveOK(t, m, Params{})
	// All five tasks must be pairwise disjoint; makespan exactly 50 since
	// set-times packs them greedily.
	var maxEnd int64
	for _, iv := range ivs {
		if end := r.Starts[iv.ID()] + iv.Dur; end > maxEnd {
			maxEnd = end
		}
	}
	if maxEnd != 50 {
		t.Fatalf("makespan %d, want 50", maxEnd)
	}
}

func TestSolvePrecedenceMapReduce(t *testing.T) {
	m := NewModel(10000)
	maps := []*Interval{m.NewInterval("m1", 30), m.NewInterval("m2", 50)}
	red := m.NewInterval("r1", 20)
	m.AddPhaseBarrier(maps, []*Interval{red})
	m.AddCumulative("map", -1, 2, maps)
	m.AddCumulative("red", -1, 1, []*Interval{red})
	r := solveOK(t, m, Params{})
	if st := r.Starts[red.ID()]; st != 50 {
		t.Fatalf("reduce starts at %d, want 50 (after the longest map)", st)
	}
}

func TestSolveLatenessForcedWhenDeadlineImpossible(t *testing.T) {
	m := NewModel(1000)
	iv := m.NewInterval("t", 100)
	m.SetStartBounds(iv, 50, 800)
	late := m.NewBool("late")
	m.AddLateness([]*Interval{iv}, 120, late) // earliest completion 150 > 120
	m.AddCumulative("r", -1, 1, []*Interval{iv})
	m.Minimize([]*Bool{late})
	r := solveOK(t, m, Params{})
	if !r.Lates[late.ID()] || r.Objective != 1 {
		t.Fatal("job should be late")
	}
	if r.Status != StatusOptimal {
		t.Fatalf("status %v (1 late is provably optimal)", r.Status)
	}
}

func TestSolveMeetsDeadlineWhenPossible(t *testing.T) {
	m := NewModel(1000)
	iv := m.NewInterval("t", 100)
	late := m.NewBool("late")
	m.AddLateness([]*Interval{iv}, 500, late)
	m.AddCumulative("r", -1, 1, []*Interval{iv})
	m.Minimize([]*Bool{late})
	r := solveOK(t, m, Params{})
	if r.Objective != 0 || r.Status != StatusOptimal {
		t.Fatalf("objective %d status %v, want 0/optimal", r.Objective, r.Status)
	}
}

// Two unit-capacity jobs where the naive job-id order makes job B late but
// scheduling B first meets both deadlines. Branch-and-bound must find the
// 0-late schedule even under the job-id ordering strategy.
func TestBnBRecoversFromBadFirstOrder(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 10)
	a.JobKey = 0
	a.Due = 100
	b := m.NewInterval("b", 10)
	b.JobKey = 1
	b.Due = 10
	lateA, lateB := m.NewBool("lateA"), m.NewBool("lateB")
	m.AddLateness([]*Interval{a}, 100, lateA)
	m.AddLateness([]*Interval{b}, 10, lateB)
	m.AddCumulative("r", -1, 1, []*Interval{a, b})
	m.Minimize([]*Bool{lateA, lateB})
	r := solveOK(t, m, Params{Ordering: OrderJobID})
	if r.Objective != 0 {
		t.Fatalf("objective %d, want 0 (schedule b first)", r.Objective)
	}
	if r.Starts[b.ID()] != 0 || r.Starts[a.ID()] < 10 {
		t.Fatalf("starts a=%d b=%d", r.Starts[a.ID()], r.Starts[b.ID()])
	}
}

// Two 60-unit jobs due at 100 on one slot: meeting both deadlines is
// impossible, and the timetable proves it at the root, so the solver
// proves the schedule 1-late without exhausting the node budget.
func TestBnBProvesBoundInfeasibleAtRoot(t *testing.T) {
	m := NewModel(100_000)
	var lates []*Bool
	var ivs []*Interval
	for j := 0; j < 2; j++ {
		iv := m.NewInterval("t", 60)
		iv.JobKey = j
		iv.Due = 100
		ivs = append(ivs, iv)
		late := m.NewBool("late")
		m.AddLateness([]*Interval{iv}, 100, late)
		lates = append(lates, late)
	}
	m.AddCumulative("r", -1, 1, ivs)
	m.Minimize(lates)
	r := NewSolver(m, Params{NodeLimit: 100_000}).Solve()
	if r.Objective != 1 || r.Status != StatusOptimal {
		t.Fatalf("objective %d, status %v, want 1/optimal", r.Objective, r.Status)
	}
	if err := m.VerifySolution(&r); err != nil {
		t.Fatal(err)
	}
	// With both jobs on time each task must start in [0, 40], so both
	// mandatory parts hold [40, 60) and overload the slot: the bound-0
	// round dies at the root, and the node count stays tiny.
	if r.Search.Nodes > 20 {
		t.Fatalf("%d nodes: the bound-0 round was not pruned at the root", r.Search.Nodes)
	}
}

func TestEDFOrderingMeetsBothDeadlinesFirstDescent(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 10)
	a.Due = 100
	b := m.NewInterval("b", 10)
	b.Due = 10
	lateA, lateB := m.NewBool("lateA"), m.NewBool("lateB")
	m.AddLateness([]*Interval{a}, 100, lateA)
	m.AddLateness([]*Interval{b}, 10, lateB)
	m.AddCumulative("r", -1, 1, []*Interval{a, b})
	m.Minimize([]*Bool{lateA, lateB})
	r := solveOK(t, m, Params{Ordering: OrderEDF})
	if r.Objective != 0 {
		t.Fatalf("objective %d, want 0", r.Objective)
	}
}

func TestSolveDirectModeTwoResources(t *testing.T) {
	m := NewModel(1000)
	var ivs []*Interval
	for i := 0; i < 4; i++ {
		iv := m.NewInterval("t", 100)
		m.NewResVar(iv, 2)
		ivs = append(ivs, iv)
	}
	m.AddCumulative("r0", 0, 1, ivs)
	m.AddCumulative("r1", 1, 1, ivs)
	var lates []*Bool
	for i, iv := range ivs {
		l := m.NewBool("late")
		_ = i
		m.AddLateness([]*Interval{iv}, 200, l)
		lates = append(lates, l)
	}
	m.Minimize(lates)
	r := solveOK(t, m, Params{})
	if r.Objective != 0 {
		t.Fatalf("objective %d, want 0 (2 tasks per resource fit in 200)", r.Objective)
	}
	// Check the matchmaking spread them 2+2.
	count := map[int]int{}
	for _, iv := range ivs {
		count[r.Res[iv.ID()]]++
	}
	if count[0] != 2 || count[1] != 2 {
		t.Fatalf("assignment counts %v, want 2 per resource", count)
	}
}

func TestSolveFrozenTaskRespected(t *testing.T) {
	m := NewModel(1000)
	frozen := m.NewInterval("frozen", 50)
	m.FixStart(frozen, 10)
	task := m.NewInterval("new", 30)
	m.AddCumulative("r", -1, 1, []*Interval{frozen, task})
	r := solveOK(t, m, Params{})
	if r.Starts[frozen.ID()] != 10 {
		t.Fatal("frozen task moved")
	}
	st := r.Starts[task.ID()]
	if st < 60 && st+30 > 10 {
		t.Fatalf("new task at %d overlaps the frozen task", st)
	}
}

func TestSolveInfeasibleWindow(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 100)
	m.FixStart(a, 0)
	b := m.NewInterval("b", 100)
	m.SetStartBounds(b, 0, 50) // must overlap a on capacity 1
	m.AddCumulative("r", -1, 1, []*Interval{a, b})
	r := NewSolver(m, Params{}).Solve()
	if r.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", r.Status)
	}
}

func TestSolveNodeLimitReturnsIncumbent(t *testing.T) {
	m := NewModel(100000)
	var ivs []*Interval
	var lates []*Bool
	for i := 0; i < 30; i++ {
		iv := m.NewInterval("t", 10)
		iv.Due = 40 // hopelessly tight for most jobs: B&B will grind
		ivs = append(ivs, iv)
		l := m.NewBool("late")
		m.AddLateness([]*Interval{iv}, 40, l)
		lates = append(lates, l)
	}
	m.AddCumulative("r", -1, 1, ivs)
	m.Minimize(lates)
	r := NewSolver(m, Params{NodeLimit: 200}).Solve()
	if !r.HasSolution() {
		t.Fatalf("expected an incumbent under the node limit, got %v", r.Status)
	}
	if err := m.VerifySolution(&r); err != nil {
		t.Fatal(err)
	}
	// Only 4 tasks can finish by 40 on capacity 1.
	if r.Objective < 26 {
		t.Fatalf("objective %d below the combinatorial floor 26", r.Objective)
	}
}

// bruteForceMinLate enumerates all schedules on a discrete grid for tiny
// single-resource instances and returns the minimum number of late tasks.
func bruteForceMinLate(durs []int64, deadlines []int64, capacity int64, horizon int64) int {
	n := len(durs)
	starts := make([]int64, n)
	best := n + 1
	var rec func(i int)
	feasible := func(upto int) bool {
		for x := int64(0); x < horizon; x++ {
			var load int64
			for j := 0; j <= upto; j++ {
				if starts[j] <= x && x < starts[j]+durs[j] {
					load++
				}
			}
			if load > capacity {
				return false
			}
		}
		return true
	}
	rec = func(i int) {
		if i == n {
			late := 0
			for j := 0; j < n; j++ {
				if starts[j]+durs[j] > deadlines[j] {
					late++
				}
			}
			if late < best {
				best = late
			}
			return
		}
		for st := int64(0); st+durs[i] <= horizon; st++ {
			starts[i] = st
			if feasible(i) {
				rec(i + 1)
			}
		}
	}
	rec(0)
	return best
}

func TestSolverMatchesBruteForceOnTinyInstances(t *testing.T) {
	rng := stats.NewStream(11, 13)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.IntN(2) // 2..3 tasks
		horizon := int64(12)
		durs := make([]int64, n)
		deadlines := make([]int64, n)
		for i := range durs {
			durs[i] = 1 + int64(rng.IntN(4))
			deadlines[i] = 2 + int64(rng.IntN(10))
		}
		capacity := int64(1 + rng.IntN(2))

		want := bruteForceMinLate(durs, deadlines, capacity, horizon)

		m := NewModel(horizon)
		var ivs []*Interval
		var lates []*Bool
		for i := 0; i < n; i++ {
			iv := m.NewInterval("t", durs[i])
			iv.Due = deadlines[i]
			ivs = append(ivs, iv)
			l := m.NewBool("late")
			m.AddLateness([]*Interval{iv}, deadlines[i], l)
			lates = append(lates, l)
		}
		m.AddCumulative("r", -1, capacity, ivs)
		m.Minimize(lates)
		r := solveOK(t, m, Params{})
		if r.Objective != want {
			t.Fatalf("trial %d (durs=%v deadlines=%v cap=%d): objective %d, brute force %d",
				trial, durs, deadlines, capacity, r.Objective, want)
		}
	}
}

func TestOrderingStrategiesAllProduceValidSchedules(t *testing.T) {
	for _, ord := range []OrderingStrategy{OrderEDF, OrderJobID, OrderLeastLaxity} {
		m := NewModel(10000)
		var ivs []*Interval
		var lates []*Bool
		rng := stats.NewStream(3, uint64(ord))
		for i := 0; i < 10; i++ {
			iv := m.NewInterval("t", 10+int64(rng.IntN(50)))
			iv.JobKey = i
			iv.Due = 100 + int64(rng.IntN(400))
			ivs = append(ivs, iv)
			l := m.NewBool("late")
			m.AddLateness([]*Interval{iv}, iv.Due, l)
			lates = append(lates, l)
		}
		m.AddCumulative("r", -1, 2, ivs)
		m.Minimize(lates)
		solveOK(t, m, Params{Ordering: ord})
	}
}

func TestDueDefaultsDoNotOverflowLaxity(t *testing.T) {
	m := NewModel(1000)
	iv := m.NewInterval("t", 10) // Due stays MaxInt64
	m.AddCumulative("r", -1, 1, []*Interval{iv})
	s := NewSolver(m, Params{Ordering: OrderLeastLaxity})
	if k := s.orderKey(iv); k != math.MaxInt64 {
		t.Fatalf("orderKey for no-deadline task = %d", k)
	}
	solveOK(t, m, Params{Ordering: OrderLeastLaxity})
}

// bruteForceMinLateHetero enumerates resource assignments and start times
// for tiny two-resource instances with per-(task,resource) durations and a
// second (memory) capacity dimension, returning the minimum late count.
func bruteForceMinLateHetero(durs [][]int64, mems, deadlines []int64,
	slotCap, memCap, horizon int64) int {
	n := len(durs)
	starts := make([]int64, n)
	res := make([]int, n)
	best := n + 1
	feasible := func() bool {
		for x := int64(0); x < horizon; x++ {
			for r := 0; r < 2; r++ {
				var load, mem int64
				for j := 0; j < n; j++ {
					if res[j] == r && starts[j] <= x && x < starts[j]+durs[j][r] {
						load++
						mem += mems[j]
					}
				}
				if load > slotCap || mem > memCap {
					return false
				}
			}
		}
		return true
	}
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if !feasible() {
				return
			}
			late := 0
			for j := 0; j < n; j++ {
				if starts[j]+durs[j][res[j]] > deadlines[j] {
					late++
				}
			}
			if late < best {
				best = late
			}
			return
		}
		for r := 0; r < 2; r++ {
			res[i] = r
			for st := int64(0); st+durs[i][r] <= horizon; st++ {
				starts[i] = st
				rec(i + 1)
			}
		}
	}
	rec(0)
	return best
}

// The heterogeneous cross-check: two speed classes (resource 1 runs every
// task slower) and two capacity dimensions (unit slots plus a memory
// cumulative), solved to optimality and compared against exhaustive
// enumeration.
func TestSolverMatchesBruteForceOnHeteroInstances(t *testing.T) {
	rng := stats.NewStream(17, 19)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.IntN(2) // 2..3 tasks
		horizon := int64(10)
		slotCap := int64(1 + rng.IntN(2))
		memCap := int64(2)
		durs := make([][]int64, n)
		mems := make([]int64, n)
		deadlines := make([]int64, n)
		for i := range durs {
			base := 1 + int64(rng.IntN(3))
			slow := base + 1 + int64(rng.IntN(2)) // resource 1 is the slow class
			durs[i] = []int64{base, slow}
			mems[i] = 1 + int64(rng.IntN(2))
			deadlines[i] = 2 + int64(rng.IntN(7))
		}

		want := bruteForceMinLateHetero(durs, mems, deadlines, slotCap, memCap, horizon)

		m := NewModel(horizon)
		var ivs []*Interval
		var lates []*Bool
		for i := 0; i < n; i++ {
			iv := m.NewInterval("t", durs[i][1]) // slowest mode, as buildModel does
			iv.Due = deadlines[i]
			m.NewResVar(iv, 2)
			m.SetResDurations(iv, durs[i])
			ivs = append(ivs, iv)
			l := m.NewBool("late")
			m.AddLateness([]*Interval{iv}, deadlines[i], l)
			lates = append(lates, l)
		}
		for r := 0; r < 2; r++ {
			m.AddCumulative("slot", r, slotCap, ivs)
			m.AddCumulativeDemands("mem", r, memCap, ivs, mems)
		}
		m.Minimize(lates)
		r := solveOK(t, m, Params{})
		if want > n {
			t.Fatalf("trial %d: brute force found no feasible schedule but the solver did", trial)
		}
		if r.Objective != want {
			t.Fatalf("trial %d (durs=%v mems=%v deadlines=%v slotCap=%d): objective %d, brute force %d",
				trial, durs, mems, deadlines, slotCap, r.Objective, want)
		}
	}
}
