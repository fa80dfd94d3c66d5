package cp

import (
	"errors"
	"testing"
)

// countingProp counts its runs and optionally fails or mutates.
type countingProp struct {
	runs   int
	action func(e *engine) error
}

func (p *countingProp) propagate(e *engine) error {
	p.runs++
	if p.action != nil {
		return p.action(e)
	}
	return nil
}

func TestEngineQueueDeduplicates(t *testing.T) {
	m := NewModel(1000)
	iv := m.NewInterval("t", 10)
	p := &countingProp{}
	idx := m.addProp(p)
	m.watchInterval(iv, idx, -1)
	e := newEngine(m)
	e.schedule(idx)
	e.schedule(idx)
	e.schedule(idx)
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}
	if p.runs != 1 {
		t.Fatalf("propagator ran %d times, want 1 (queue dedup)", p.runs)
	}
}

func TestEngineWakeOnBoundChange(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 10)
	b := m.NewInterval("b", 10)
	watchA := &countingProp{}
	m.watchInterval(a, m.addProp(watchA), -1)
	watchB := &countingProp{}
	m.watchInterval(b, m.addProp(watchB), -1)
	e := newEngine(m)
	if err := e.setStartMin(a, 5); err != nil {
		t.Fatal(err)
	}
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}
	if watchA.runs != 1 || watchB.runs != 0 {
		t.Fatalf("wakes a=%d b=%d, want 1/0", watchA.runs, watchB.runs)
	}
	// A no-op bound change must not wake anyone.
	if err := e.setStartMin(a, 5); err != nil {
		t.Fatal(err)
	}
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}
	if watchA.runs != 1 {
		t.Fatal("no-op change woke the propagator")
	}
}

func TestEngineFailureDrainsQueue(t *testing.T) {
	m := NewModel(1000)
	iv := m.NewInterval("t", 10)
	failing := &countingProp{action: func(*engine) error { return errFail }}
	neverRun := &countingProp{}
	fi := m.addProp(failing)
	ni := m.addProp(neverRun)
	m.watchInterval(iv, fi, -1)
	m.watchInterval(iv, ni, -1)
	e := newEngine(m)
	e.schedule(fi)
	e.schedule(ni)
	if err := e.propagate(); !errors.Is(err, errFail) {
		t.Fatalf("expected errFail, got %v", err)
	}
	if neverRun.runs != 0 {
		t.Fatal("queue not drained after failure")
	}
	if len(e.queue) != 0 {
		t.Fatal("queue left non-empty")
	}
	for i, inQ := range e.inQueue {
		if inQ {
			t.Fatalf("inQueue[%d] flag left set", i)
		}
	}
}

func TestEngineSelfWakeSuppressed(t *testing.T) {
	m := NewModel(1000)
	iv := m.NewInterval("t", 10)
	var self *countingProp
	self = &countingProp{action: func(e *engine) error {
		// Mutating a watched variable from inside the watcher must not
		// re-enqueue the watcher (it is expected to reach its own fixpoint).
		if self.runs == 1 {
			return e.setStartMin(iv, 7)
		}
		return nil
	}}
	idx := m.addProp(self)
	m.watchInterval(iv, idx, -1)
	e := newEngine(m)
	e.schedule(idx)
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}
	if self.runs != 1 {
		t.Fatalf("self-wake ran the propagator %d times", self.runs)
	}
}
