package cp

import "testing"

func TestModelIntervalDefaults(t *testing.T) {
	m := NewModel(1000)
	iv := m.NewInterval("t1", 100)
	if m.StartMin(iv) != 0 || m.StartMax(iv) != 900 {
		t.Fatalf("default bounds [%d,%d], want [0,900]", m.StartMin(iv), m.StartMax(iv))
	}
	if m.EndMin(iv) != 100 || m.EndMax(iv) != 1000 {
		t.Fatalf("end bounds [%d,%d]", m.EndMin(iv), m.EndMax(iv))
	}
	if m.Fixed(iv) {
		t.Fatal("fresh interval should not be fixed")
	}
}

func TestModelSetStartBoundsAndFix(t *testing.T) {
	m := NewModel(1000)
	iv := m.NewInterval("t1", 10)
	m.SetStartBounds(iv, 50, 60)
	if m.StartMin(iv) != 50 || m.StartMax(iv) != 60 {
		t.Fatal("SetStartBounds failed")
	}
	m.FixStart(iv, 55)
	if !m.Fixed(iv) || m.StartMin(iv) != 55 {
		t.Fatal("FixStart failed")
	}
}

func TestModelInvalidIntervalPanics(t *testing.T) {
	m := NewModel(100)
	mustPanic(t, "zero duration", func() { m.NewInterval("z", 0) })
	mustPanic(t, "duration beyond horizon", func() { m.NewInterval("big", 101) })
	iv := m.NewInterval("ok", 10)
	mustPanic(t, "empty bounds", func() { m.SetStartBounds(iv, 5, 4) })
	mustPanic(t, "bounds beyond horizon", func() { m.SetStartBounds(iv, 0, 95) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestResVarDomainOps(t *testing.T) {
	m := NewModel(100)
	iv := m.NewInterval("t", 5)
	rv := m.NewResVar(iv, 70) // spans two bitset words
	if m.ResDomainSize(rv) != 70 {
		t.Fatalf("initial domain size %d", m.ResDomainSize(rv))
	}
	if !m.ResAllowed(rv, 0) || !m.ResAllowed(rv, 69) || m.ResAllowed(rv, 70) {
		t.Fatal("ResAllowed wrong at edges")
	}
	if m.ResFixedValue(rv) != -1 {
		t.Fatal("unfixed domain reported a fixed value")
	}
	m.FixRes(rv, 65)
	if m.ResFixedValue(rv) != 65 || m.ResDomainSize(rv) != 1 {
		t.Fatal("FixRes failed")
	}
	if d := m.AppendResDomain(rv, nil); len(d) != 1 || d[0] != 65 {
		t.Fatalf("domain %v", d)
	}
}

func TestResVarEngineOps(t *testing.T) {
	m := NewModel(100)
	iv := m.NewInterval("t", 5)
	rv := m.NewResVar(iv, 3)
	e := newEngine(m)
	if err := e.removeRes(rv, 1); err != nil {
		t.Fatal(err)
	}
	if m.ResDomainSize(rv) != 2 || m.ResAllowed(rv, 1) {
		t.Fatal("removeRes failed")
	}
	if err := e.removeRes(rv, 0); err != nil {
		t.Fatal(err)
	}
	if m.ResFixedValue(rv) != 2 {
		t.Fatal("domain should be {2}")
	}
	if err := e.removeRes(rv, 2); err != errFail {
		t.Fatal("emptying domain should fail")
	}
	if err := e.fixRes(rv, 1); err != errFail {
		t.Fatal("fixing to removed value should fail")
	}
}

func TestEngineStartBoundOps(t *testing.T) {
	m := NewModel(1000)
	iv := m.NewInterval("t", 10)
	e := newEngine(m)
	if err := e.setStartMin(iv, 100); err != nil {
		t.Fatal(err)
	}
	if err := e.setStartMax(iv, 200); err != nil {
		t.Fatal(err)
	}
	if m.StartMin(iv) != 100 || m.StartMax(iv) != 200 {
		t.Fatal("bound ops failed")
	}
	// Weakening writes are no-ops.
	if err := e.setStartMin(iv, 50); err != nil || m.StartMin(iv) != 100 {
		t.Fatal("weakening setStartMin changed bound")
	}
	if err := e.setStartMin(iv, 201); err != errFail {
		t.Fatal("crossing bounds should fail")
	}
	if err := e.setStartMax(iv, 99); err != errFail {
		t.Fatal("crossing bounds should fail")
	}
}

func TestEnginePostponeClearedOnBoundChange(t *testing.T) {
	m := NewModel(1000)
	iv := m.NewInterval("t", 10)
	e := newEngine(m)
	e.postpone(iv)
	if !m.postponed(iv) {
		t.Fatal("postpone failed")
	}
	if err := e.setStartMin(iv, 5); err != nil {
		t.Fatal(err)
	}
	if m.postponed(iv) {
		t.Fatal("raising startMin must clear postponement")
	}
}

func TestBoolOps(t *testing.T) {
	m := NewModel(100)
	b := m.NewBool("late")
	if m.BoolFixed(b) {
		t.Fatal("fresh bool fixed")
	}
	e := newEngine(m)
	if err := e.setBool(b, 1); err != nil {
		t.Fatal(err)
	}
	if !m.BoolFixed(b) || m.BoolMin(b) != 1 {
		t.Fatal("setBool failed")
	}
	if err := e.setBool(b, 0); err != errFail {
		t.Fatal("contradicting a fixed bool should fail")
	}
	if err := e.setBool(b, 1); err != nil {
		t.Fatal("re-setting same value should be a no-op")
	}
}

func TestDoubleResVarPanics(t *testing.T) {
	m := NewModel(100)
	iv := m.NewInterval("t", 5)
	m.NewResVar(iv, 2)
	mustPanic(t, "second resvar", func() { m.NewResVar(iv, 2) })
}
