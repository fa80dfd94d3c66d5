package core

import (
	"errors"
	"testing"

	"mrcprm/internal/sim"
	"mrcprm/internal/stats"
	"mrcprm/internal/workload"
)

func TestSLALowerBound(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	// 4 maps of 10s on 2 total map slots: area bound 20s beats longest 10s.
	j := mkJob(0, 0, 0, 1, []int64{10_000, 10_000, 10_000, 10_000}, []int64{5_000})
	if lb := SLALowerBound(cluster, j); lb != 25_000 {
		t.Fatalf("lower bound = %d, want 25000", lb)
	}
	// One long map dominates the area spread.
	j2 := mkJob(1, 0, 0, 1, []int64{30_000, 1_000}, nil)
	if lb := SLALowerBound(cluster, j2); lb != 30_000 {
		t.Fatalf("lower bound = %d, want 30000", lb)
	}
}

func TestSLALowerBoundHetero(t *testing.T) {
	cluster := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1,
		Speed: []float64{1.0, 0.5}}
	// Aggregate drain rate is 1.5 nominal ms per wall ms: the area term
	// ceil(20000/1.5) = 13334 beats the longest task (10s on the fast
	// machine).
	j := mkJob(0, 0, 0, 1, []int64{10_000, 10_000}, nil)
	if lb := SLALowerBound(cluster, j); lb != 13_334 {
		t.Fatalf("hetero area bound = %d, want 13334", lb)
	}
	// One dominant task: even the fastest machine needs its full 30s.
	j2 := mkJob(1, 0, 0, 1, []int64{30_000}, nil)
	if lb := SLALowerBound(cluster, j2); lb != 30_000 {
		t.Fatalf("hetero longest bound = %d, want 30000", lb)
	}
	// An explicit all-1.0 vector must agree exactly with the nil
	// representation.
	uniform := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1}
	explicit := uniform
	explicit.Speed = []float64{1, 1}
	j3 := mkJob(2, 0, 0, 1, []int64{10_000, 10_000, 10_000, 10_000}, []int64{5_000})
	if a, b := SLALowerBound(uniform, j3), SLALowerBound(explicit, j3); a != b {
		t.Fatalf("uniform bound %d != explicit all-1.0 bound %d", a, b)
	}
}

// TestPhaseBoundMatchesIntegerFormula holds the speed-weighted phase bound
// to the integer formula max(longest, ceil(area / slots)) on uniform
// clusters, with Speed nil or all 1.0: there the slot rate is an exact
// float and area stays far below 2^53, so the float ceiling is exact.
func TestPhaseBoundMatchesIntegerFormula(t *testing.T) {
	integer := func(tasks []*workload.Task, slots int64) int64 {
		if slots <= 0 {
			return 0
		}
		var longest, area int64
		for _, t := range tasks {
			longest = max(longest, t.Exec)
			area += t.Exec * t.Req
		}
		return max(longest, (area+slots-1)/slots)
	}
	rng := stats.NewStream(7, 11)
	for i := 0; i < 20_000; i++ {
		c := sim.Cluster{NumResources: 1 + rng.IntN(200),
			MapSlots: int64(1 + rng.IntN(8)), ReduceSlots: int64(1 + rng.IntN(8))}
		if rng.IntN(2) == 0 {
			c.Speed = make([]float64, c.NumResources)
			for r := range c.Speed {
				c.Speed[r] = 1
			}
		}
		var tasks [2][]*workload.Task
		for p, n := range []int{rng.IntN(60), rng.IntN(20)} {
			for k := 0; k < n; k++ {
				tasks[p] = append(tasks[p], &workload.Task{
					Exec: int64(1 + rng.IntN(3_000_000)), Req: int64(1 + rng.IntN(2))})
			}
		}
		if got, want := phaseLowerBound(tasks[0], c.MapSlots, c), integer(tasks[0], c.TotalMapSlots()); got != want {
			t.Fatalf("case %d: map bound %d on %+v, integer formula %d", i, got, c, want)
		}
		if got, want := phaseLowerBound(tasks[1], c.ReduceSlots, c), integer(tasks[1], c.TotalReduceSlots()); got != want {
			t.Fatalf("case %d: reduce bound %d on %+v, integer formula %d", i, got, c, want)
		}
	}
}

// A workflow's pools run side by side and its chains can outlast both pool
// bounds; the bound must stay below what the batch solver achieves.
func TestSLALowerBoundWorkflow(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	// Independent 10 s map and reduce tasks finish together at 10 s.
	par := workload.NewWorkflow(0, 0, 15_000)
	par.AddTask("m", workload.MapTask, 10_000)
	par.AddTask("r", workload.ReduceTask, 10_000)
	if lb := SLALowerBound(cluster, par); lb != 10_000 {
		t.Fatalf("parallel pools: lower bound %d, want 10000", lb)
	}
	if err := CheckAdmission(cluster, par, 0); err != nil {
		t.Fatalf("feasible workflow rejected: %v", err)
	}
	sched, err := SolveBatch(cluster, []*workload.Job{par}, deterministicConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.LateJobs) != 0 {
		t.Fatalf("batch solve made the admitted workflow late: %v", sched.LateJobs)
	}
	// A map -> reduce -> map chain is longer than either pool's work.
	chain := workload.NewWorkflow(1, 0, 100_000)
	a := chain.AddTask("a", workload.MapTask, 4_000)
	b := chain.AddTask("b", workload.ReduceTask, 6_000)
	c := chain.AddTask("c", workload.MapTask, 5_000)
	if err := chain.Chain(a, b, c); err != nil {
		t.Fatal(err)
	}
	if lb := SLALowerBound(cluster, chain); lb != 15_000 {
		t.Fatalf("chain: lower bound %d, want 15000", lb)
	}
	fast := sim.Cluster{NumResources: 2, MapSlots: 1, ReduceSlots: 1, Speed: []float64{2, 1}}
	if lb := SLALowerBound(fast, chain); lb != 7_500 {
		t.Fatalf("chain on a 2x machine: lower bound %d, want 7500", lb)
	}
}

func TestCheckAdmissionMemory(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1, MemCapacity: 4}
	j := mkJob(0, 0, 0, 100_000, []int64{1_000}, nil)
	j.MapTasks[0].Mem = 5
	var ae *AdmissionError
	if err := CheckAdmission(cluster, j, 0); !errors.As(err, &ae) {
		t.Fatalf("task with Mem 5 on capacity-4 cluster admitted: %v", err)
	}
	j.MapTasks[0].Mem = 4
	if err := CheckAdmission(cluster, j, 0); err != nil {
		t.Fatalf("exactly-fitting task rejected: %v", err)
	}
}

func TestCheckAdmission(t *testing.T) {
	cluster := sim.Cluster{NumResources: 1, MapSlots: 1, ReduceSlots: 1}
	// Needs 10s of map work; deadline leaves exactly 10s: feasible.
	ok := mkJob(0, 0, 0, 10_000, []int64{10_000}, nil)
	if err := CheckAdmission(cluster, ok, 0); err != nil {
		t.Fatalf("tight-but-feasible job rejected: %v", err)
	}
	// One ms short: provably infeasible.
	bad := mkJob(1, 0, 0, 9_999, []int64{10_000}, nil)
	err := CheckAdmission(cluster, bad, 0)
	var ae *AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("want *AdmissionError, got %v", err)
	}
	if ae.EarliestFinish != 10_000 || ae.Deadline != 9_999 {
		t.Fatalf("bad error detail: %+v", ae)
	}
	// The clock advancing past the earliest start tightens the check.
	if err := CheckAdmission(cluster, ok, 1); err == nil {
		t.Fatal("job feasible only at t=0 admitted at t=1")
	}
	// A far-future earliest start keeps it feasible regardless of now.
	ar := mkJob(2, 0, 50_000, 70_000, []int64{10_000}, nil)
	if err := CheckAdmission(cluster, ar, 20_000); err != nil {
		t.Fatalf("advance-reservation job rejected: %v", err)
	}
}
