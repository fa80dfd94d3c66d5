package sim

import (
	"testing"

	"mrcprm/internal/workload"
)

func TestUtilizationSingleTask(t *testing.T) {
	c := oneSlotCluster()
	j := makeJob(0, 0, 0, 1e9, []int64{4000}, nil)
	s, _ := New(c, newFifoRM(c), []*workload.Job{j})
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.BusyMapSlotMS != 4000 || m.BusyReduceSlotMS != 0 {
		t.Fatalf("busy %d/%d", m.BusyMapSlotMS, m.BusyReduceSlotMS)
	}
	// One map slot busy 4000ms of a 4000ms makespan: map utilization 1.
	if u := m.MapUtilization(c); u != 1 {
		t.Fatalf("map utilization %g", u)
	}
	if u := m.ReduceUtilization(c); u != 0 {
		t.Fatalf("reduce utilization %g", u)
	}
	if m.ResourceActiveMS != 4000 {
		t.Fatalf("active %d", m.ResourceActiveMS)
	}
}

func TestResourceActiveMergesOverlap(t *testing.T) {
	// Map [0,4s) and reduce [4s,6s) on one resource: active 6s, not 6s+4s.
	c := oneSlotCluster()
	j := makeJob(0, 0, 0, 1e9, []int64{4000}, []int64{2000})
	s, _ := New(c, newFifoRM(c), []*workload.Job{j})
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.ResourceActiveMS != 6000 {
		t.Fatalf("active %d, want 6000", m.ResourceActiveMS)
	}
}

func TestResourceActiveCountsGapsSeparately(t *testing.T) {
	c := oneSlotCluster()
	j0 := makeJob(0, 0, 0, 1e9, []int64{2000}, nil)
	j1 := makeJob(1, 10_000, 10_000, 1e9, []int64{3000}, nil)
	s, _ := New(c, newFifoRM(c), []*workload.Job{j0, j1})
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Busy [0,2s) and [10s,13s): 5s active, not 13s.
	if m.ResourceActiveMS != 5000 {
		t.Fatalf("active %d, want 5000", m.ResourceActiveMS)
	}
}

func TestUtilizationZeroMakespan(t *testing.T) {
	m := &Metrics{}
	if m.MapUtilization(oneSlotCluster()) != 0 || m.ReduceUtilization(oneSlotCluster()) != 0 {
		t.Fatal("zero makespan should yield zero utilization")
	}
}
