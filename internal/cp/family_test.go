package cp

import (
	"slices"
	"testing"
)

// A direct model's watch lists do not grow with its machines: over 10
// resources as over 50, every interval of the same instance carries the
// same watch entries — one per family it is in, on its interval and on its
// resvar list, next to its barrier and lateness entries — and no entry
// names a resource's timetable on its own.
func TestDirectWatchFootprint(t *testing.T) {
	footprint := func(numRes int) []int {
		m := heteroInstance(new(Model), 4242, numRes, 12, 8)
		if len(m.families) != 3 {
			t.Fatalf("%d resources: %d families, want map, reduce and memory", numRes, len(m.families))
		}
		var out []int
		for _, iv := range m.intervals {
			inFams := 0
			for _, f := range m.families {
				if len(f.members) != numRes {
					t.Fatalf("%d resources: a family of %d members", numRes, len(f.members))
				}
				if slices.Contains(f.tasks, iv) {
					inFams++
				}
			}
			n := 0
			for _, list := range [][]watch{m.ivWatch[iv.id], m.rvWatch[iv.resVar.id]} {
				famEntries := 0
				for _, w := range list {
					if w.prop < 0 {
						famEntries++
					} else if c, ok := m.props[w.prop].(*cumulative); ok {
						t.Fatalf("%d resources: interval %d watches timetable %s r%d on its own",
							numRes, iv.id, c.name, c.resIndex)
					}
				}
				if famEntries != inFams {
					t.Fatalf("%d resources: interval %d has %d family entries, in %d families",
						numRes, iv.id, famEntries, inFams)
				}
				n += len(list)
			}
			out = append(out, n)
		}
		return out
	}
	small, large := footprint(10), footprint(50)
	if !slices.Equal(small, large) {
		t.Fatalf("watch entries per interval over 10 resources %v, over 50 %v", small, large)
	}
}

// A model recycled from a direct build into a combined one keeps no family:
// the combined build has no family entry, and its solve's counters,
// objective and assignment are a fresh model's.
func TestResetDropsFamilies(t *testing.T) {
	combined := pinnedSolves[0]
	fresh := solvePinned(new(Model), combined)
	m := new(Model)
	solvePinned(m, pinnedSolves[len(pinnedSolves)-1])
	if len(m.families) == 0 {
		t.Fatal("the direct build posted no family")
	}
	got := solvePinned(m, combined)
	if len(m.families) != 0 {
		t.Fatalf("the combined build kept %d families", len(m.families))
	}
	for id := range m.intervals {
		for _, w := range m.ivWatch[id] {
			if w.prop < 0 {
				t.Fatalf("interval %d of the combined build has a family entry", id)
			}
		}
	}
	if countersOf(&got) != countersOf(&fresh) || !slices.Equal(got.Starts, fresh.Starts) {
		t.Fatalf("recycled combined solve %+v, fresh %+v", countersOf(&got), countersOf(&fresh))
	}
}

// A wake schedules every propagator an interval sits on in ascending prop
// order — each member of its families included, also one its domain has
// dropped — exactly as one watch entry per member did, and notes only the
// members its domain holds. placementStart's timetables come in that order
// too. The three families here (slots, memory and a third dimension over
// one task list) post their members interleaved with each other and with a
// barrier and a lateness constraint, so list order is not prop order.
func TestWakeSchedulesEveryMemberInPropOrder(t *testing.T) {
	m := NewModel(1000)
	a, b := m.NewInterval("a", 10), m.NewInterval("b", 10)
	m.NewResVar(a, 3)
	m.NewResVar(b, 3)
	tasks := []*Interval{a, b}
	mem, net := []int64{1, 2}, []int64{2, 1}
	post := []func(){
		func() { m.AddCumulative("slot", 0, 1, tasks) },
		func() { m.AddCumulativeDemands("mem", 1, 2, tasks, mem) },
		func() { m.AddPhaseBarrier([]*Interval{a}, []*Interval{b}) },
		func() { m.AddCumulativeDemands("net", 2, 2, tasks, net) },
		func() { m.AddCumulative("slot", 1, 1, tasks) },
		func() { m.AddCumulativeDemands("mem", 0, 2, tasks, mem) },
		func() { m.AddCumulativeDemands("net", 0, 2, tasks, net) },
		func() { m.AddCumulative("slot", 2, 1, tasks) },
		func() { m.AddLateness([]*Interval{a}, 50, m.NewBool("late")) },
		func() { m.AddCumulativeDemands("mem", 2, 2, tasks, mem) },
		func() { m.AddCumulativeDemands("net", 1, 2, tasks, net) },
	}
	for _, p := range post {
		p()
	}
	if len(m.families) != 3 || len(m.ivWatch[a.id]) != 5 || len(m.rvWatch[a.resVar.id]) != 3 {
		t.Fatalf("%d families, %d interval and %d resvar entries; want 3, 5 and 3",
			len(m.families), len(m.ivWatch[a.id]), len(m.rvWatch[a.resVar.id]))
	}
	var onA, cumuls []int // every prop a sits on, and the cumulative ones
	for p := range m.props {
		switch m.props[p].(type) {
		case *cumulative:
			onA, cumuls = append(onA, p), append(cumuls, p)
		case *phaseBarrier, *lateness:
			onA = append(onA, p)
		}
	}
	queued := func(e *engine) []int { return slices.Clone(e.queue[e.qhead:]) }

	e := newEngine(m)
	e.store.Push()
	if err := e.removeRes(a.resVar, 2); err != nil {
		t.Fatal(err)
	}
	if got := queued(e); !slices.Equal(got, cumuls) {
		t.Fatalf("a resvar wake queued %v, want every timetable %v", got, cumuls)
	}
	for _, c := range m.cumuls {
		if noted := slices.Contains(c.changed, 0); noted != (c.resIndex != 2) {
			t.Fatalf("after removing resource 2, %s r%d noted a: %v", c.name, c.resIndex, noted)
		}
	}
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}
	if err := e.setStartMax(a, 30); err != nil {
		t.Fatal(err)
	}
	if got := queued(e); !slices.Equal(got, onA) {
		t.Fatalf("a bounds wake queued %v, want %v", got, onA)
	}
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}

	if err := e.fixRes(a.resVar, 1); err != nil {
		t.Fatal(err)
	}
	on, cums := m.timetablesOn(a, nil)
	var props []int
	for _, tt := range on {
		if tt.c.resIndex != 1 || tt.pos != 0 {
			t.Fatalf("a fixed on resource 1 runs on %s r%d at position %d", tt.c.name, tt.c.resIndex, tt.pos)
		}
		props = append(props, tt.c.prop)
	}
	if cums != 9 || len(props) != 3 || !slices.IsSorted(props) {
		t.Fatalf("a fixed on resource 1 runs on props %v of %d timetables; want 3 ascending of 9", props, cums)
	}
}
