package cp

import "testing"

// Direct unit tests of the three scalar propagators; the cumulative has
// its own file.

func propagateAll(t *testing.T, m *Model) *engine {
	t.Helper()
	e := newEngine(m)
	e.scheduleAll()
	if err := e.propagate(); err != nil {
		t.Fatalf("root propagation failed: %v", err)
	}
	return e
}

func TestPhaseBarrierForwardBound(t *testing.T) {
	m := NewModel(10_000)
	m1 := m.NewInterval("m1", 100)
	m.SetStartBounds(m1, 50, 50)
	m2 := m.NewInterval("m2", 300)
	m.SetStartBounds(m2, 0, 1000)
	r1 := m.NewInterval("r1", 10)
	r2 := m.NewInterval("r2", 20)
	m.AddPhaseBarrier([]*Interval{m1, m2}, []*Interval{r1, r2})
	propagateAll(t, m)
	// LFMT lower bound: max(50+100, 0+300) = 300.
	if got := m.StartMin(r1); got != 300 {
		t.Fatalf("r1 startMin %d, want 300", got)
	}
	if got := m.StartMin(r2); got != 300 {
		t.Fatalf("r2 startMin %d, want 300", got)
	}
}

func TestPhaseBarrierBackwardBound(t *testing.T) {
	m := NewModel(10_000)
	mp := m.NewInterval("m", 100)
	r := m.NewInterval("r", 10)
	m.SetStartBounds(r, 0, 500) // reduce must start by 500
	m.AddPhaseBarrier([]*Interval{mp}, []*Interval{r})
	propagateAll(t, m)
	// The map must end by the reduce's latest start: startMax <= 400.
	if got := m.StartMax(mp); got != 400 {
		t.Fatalf("map startMax %d, want 400", got)
	}
}

func TestPhaseBarrierInfeasible(t *testing.T) {
	m := NewModel(10_000)
	mp := m.NewInterval("m", 600)
	m.SetStartBounds(mp, 100, 100) // ends at 700
	r := m.NewInterval("r", 10)
	m.SetStartBounds(r, 0, 500) // must start by 500 < 700
	m.AddPhaseBarrier([]*Interval{mp}, []*Interval{r})
	e := newEngine(m)
	e.scheduleAll()
	if err := e.propagate(); err != errFail {
		t.Fatalf("expected failure, got %v", err)
	}
}

func TestLatenessForcedLate(t *testing.T) {
	m := NewModel(10_000)
	iv := m.NewInterval("t", 100)
	m.SetStartBounds(iv, 950, 2000) // earliest completion 1050
	late := m.NewBool("late")
	m.AddLateness([]*Interval{iv}, 1000, late)
	propagateAll(t, m)
	if m.BoolMin(late) != 1 {
		t.Fatal("late should be forced to 1")
	}
}

func TestLatenessForcedOnTime(t *testing.T) {
	m := NewModel(10_000)
	iv := m.NewInterval("t", 100)
	m.SetStartBounds(iv, 0, 400) // latest completion 500 <= 1000
	late := m.NewBool("late")
	m.AddLateness([]*Interval{iv}, 1000, late)
	propagateAll(t, m)
	if m.BoolMax(late) != 0 {
		t.Fatal("late should be fixed to 0 (provably on time)")
	}
}

func TestLatenessZeroEnforcesDeadlineWindows(t *testing.T) {
	m := NewModel(10_000)
	iv := m.NewInterval("t", 100)
	late := m.NewBool("late")
	m.AddLateness([]*Interval{iv}, 1000, late)
	e := propagateAll(t, m)
	if err := e.setBool(late, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}
	if got := m.StartMax(iv); got != 900 {
		t.Fatalf("startMax %d, want 900 (deadline window)", got)
	}
}

func TestLatenessConflict(t *testing.T) {
	m := NewModel(10_000)
	iv := m.NewInterval("t", 100)
	m.SetStartBounds(iv, 950, 2000)
	late := m.NewBool("late")
	m.AddLateness([]*Interval{iv}, 1000, late)
	e := newEngine(m)
	// Pre-decide late = 0, then propagate: contradiction.
	if err := e.setBool(late, 0); err != nil {
		t.Fatal(err)
	}
	e.scheduleAll()
	if err := e.propagate(); err != errFail {
		t.Fatalf("expected failure, got %v", err)
	}
}

func TestSumLEForcesRemainingOnTime(t *testing.T) {
	m := NewModel(10_000)
	var bools []*Bool
	for i := 0; i < 3; i++ {
		bools = append(bools, m.NewBool("b"))
	}
	m.addSumLE(bools, 1)
	e := newEngine(m)
	if err := e.setBool(bools[0], 1); err != nil {
		t.Fatal(err)
	}
	e.scheduleAll()
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}
	// Bound reached: the other two must be 0.
	if m.BoolMax(bools[1]) != 0 || m.BoolMax(bools[2]) != 0 {
		t.Fatal("remaining bools should be forced to 0")
	}
}

func TestSumLEOverflowFails(t *testing.T) {
	m := NewModel(10_000)
	var bools []*Bool
	for i := 0; i < 3; i++ {
		bools = append(bools, m.NewBool("b"))
	}
	m.addSumLE(bools, 1)
	e := newEngine(m)
	if err := e.setBool(bools[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := e.setBool(bools[1], 1); err != nil {
		t.Fatal(err)
	}
	e.scheduleAll()
	if err := e.propagate(); err != errFail {
		t.Fatalf("expected failure with 2 > bound 1, got %v", err)
	}
}

func TestSumLEHandleUpdatesBound(t *testing.T) {
	m := NewModel(10_000)
	b := m.NewBool("b")
	cut := m.addSumLE([]*Bool{b}, 1)
	if cut.bound != 1 {
		t.Fatal("initial bound")
	}
	cut.bound = 0
	e := newEngine(m)
	e.scheduleAll()
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}
	if m.BoolMax(b) != 0 {
		t.Fatal("bound 0 should force the bool to 0")
	}
}

func TestDoubleSumLEPanics(t *testing.T) {
	m := NewModel(100)
	b := m.NewBool("b")
	m.addSumLE([]*Bool{b}, 1)
	mustPanic(t, "second SumLE", func() { m.addSumLE([]*Bool{b}, 1) })
}

func TestEmptyBarrierIsNoop(t *testing.T) {
	m := NewModel(100)
	iv := m.NewInterval("t", 10)
	m.AddPhaseBarrier(nil, []*Interval{iv})
	m.AddPhaseBarrier([]*Interval{iv}, nil)
	if len(m.props) != 0 {
		t.Fatal("empty barriers should post nothing")
	}
}

func TestLatenessNeedsTerminals(t *testing.T) {
	m := NewModel(100)
	late := m.NewBool("late")
	mustPanic(t, "empty terminals", func() { m.AddLateness(nil, 50, late) })
}
