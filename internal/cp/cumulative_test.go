package cp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mrcprm/internal/stats"
)

// profileOf builds the cumulative's profile and returns its segments.
func profileOf(t *testing.T, m *Model, c *Cumulative) []ttSeg {
	t.Helper()
	if err := c.c.refresh(m); err != nil {
		t.Fatalf("profile build failed: %v", err)
	}
	return append([]ttSeg(nil), c.c.segs...)
}

func TestProfileMandatoryParts(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 10)
	m.SetStartBounds(a, 5, 5) // mandatory [5,15)
	b := m.NewInterval("b", 10)
	m.SetStartBounds(b, 10, 12) // mandatory [12,20)
	c := m.AddCumulative("r", -1, 2, []*Interval{a, b})
	segs := profileOf(t, m, c)
	// Expect load 1 on [5,12), 2 on [12,15), 1 on [15,20).
	want := []ttSeg{{5, 12, 1}, {12, 15, 2}, {15, 20, 1}}
	if len(segs) != len(want) {
		t.Fatalf("segments %+v, want %+v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
}

func TestProfileNoMandatoryPart(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 10) // window [0,990]: no mandatory part
	c := m.AddCumulative("r", -1, 1, []*Interval{a})
	if segs := profileOf(t, m, c); len(segs) != 0 {
		t.Fatalf("unexpected mandatory segments %+v", segs)
	}
}

func TestProfileOverloadFails(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 10)
	m.FixStart(a, 0)
	b := m.NewInterval("b", 10)
	m.FixStart(b, 5)
	cum := m.AddCumulative("r", -1, 1, []*Interval{a, b})
	if err := cum.c.refresh(m); err != errFail {
		t.Fatalf("overlapping fixed tasks on capacity 1 should fail, got %v", err)
	}
}

func TestEarliestFitJumpsPastConflicts(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 20)
	m.FixStart(a, 10) // occupies [10,30) on capacity 1
	b := m.NewInterval("b", 15)
	cum := m.AddCumulative("r", -1, 1, []*Interval{a, b})
	if err := cum.c.refresh(m); err != nil {
		t.Fatal(err)
	}
	// b cannot start in (0,30): starting at 0 would end at 15 > 10.
	if st := cum.c.earliestFit(m, b, 1, 0, true); st != 30 {
		t.Fatalf("earliestFit = %d, want 30", st)
	}
	// From 40 there is no conflict.
	if st := cum.c.earliestFit(m, b, 1, 40, true); st != 40 {
		t.Fatalf("earliestFit = %d, want 40", st)
	}
}

func TestEarliestFitDiscountsOwnMandatoryPart(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 20)
	m.SetStartBounds(a, 10, 15) // own mandatory part [15,30)
	cum := m.AddCumulative("r", -1, 1, []*Interval{a})
	if err := cum.c.refresh(m); err != nil {
		t.Fatal(err)
	}
	// a itself can still start at 10: the only load is its own.
	if st := cum.c.earliestFit(m, a, 1, 10, true); st != 10 {
		t.Fatalf("earliestFit = %d, want 10", st)
	}
	// A hypothetical other task of the same shape could not.
	b := m.NewInterval("b", 20)
	if st := cum.c.earliestFit(m, b, 1, 10, false); st != 30 {
		t.Fatalf("earliestFit = %d, want 30", st)
	}
}

func TestLatestFitPullsBeforeConflicts(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 20)
	m.FixStart(a, 50) // occupies [50,70) on capacity 1
	b := m.NewInterval("b", 15)
	cum := m.AddCumulative("r", -1, 1, []*Interval{a, b})
	if err := cum.c.refresh(m); err != nil {
		t.Fatal(err)
	}
	// Latest start <= 60 that avoids [50,70) entirely: must end by 50.
	if st := cum.c.latestFit(m, b, 1, 60, true); st != 35 {
		t.Fatalf("latestFit = %d, want 35", st)
	}
	// From 80 there is no conflict.
	if st := cum.c.latestFit(m, b, 1, 80, true); st != 80 {
		t.Fatalf("latestFit = %d, want 80", st)
	}
}

func TestCumulativePropagationSequencesTasks(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 10)
	m.FixStart(a, 0)
	b := m.NewInterval("b", 10)
	m.AddCumulative("r", -1, 1, []*Interval{a, b})
	e := newEngine(m)
	e.scheduleAll()
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}
	if got := m.StartMin(b); got != 10 {
		t.Fatalf("b startMin = %d, want 10 (pushed past a)", got)
	}
}

func TestCumulativeCapacityTwoAllowsOverlap(t *testing.T) {
	m := NewModel(1000)
	a := m.NewInterval("a", 10)
	m.FixStart(a, 0)
	b := m.NewInterval("b", 10)
	m.AddCumulative("r", -1, 2, []*Interval{a, b})
	e := newEngine(m)
	e.scheduleAll()
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}
	if got := m.StartMin(b); got != 0 {
		t.Fatalf("b startMin = %d, want 0 (capacity 2 allows overlap)", got)
	}
}

func TestCumulativeRemovesInfeasibleResource(t *testing.T) {
	m := NewModel(100)
	blocker := m.NewInterval("blocker", 90)
	m.FixStart(blocker, 0) // fills resource 0 almost entirely
	task := m.NewInterval("task", 20)
	rv := m.NewResVar(task, 2)
	m.AddCumulative("r0", 0, 1, []*Interval{blocker, task})
	m.AddCumulative("r1", 1, 1, []*Interval{task})
	e := newEngine(m)
	e.scheduleAll()
	if err := e.propagate(); err != nil {
		t.Fatal(err)
	}
	// task (dur 20, window [0,80]) cannot fit on r0: earliest fit is 90 > 80.
	if m.ResAllowed(rv, 0) {
		t.Fatal("resource 0 should have been removed from the domain")
	}
	if m.ResFixedValue(rv) != 1 {
		t.Fatal("task should be forced onto resource 1")
	}
}

// loadSteps reduces a segment list to its load function: zero-load
// segments dropped, contiguous segments of equal load merged.
func loadSteps(segs []ttSeg) []ttSeg {
	var out []ttSeg
	for _, s := range segs {
		if s.load == 0 || s.from >= s.to {
			continue
		}
		if n := len(out); n > 0 && out[n-1].to == s.from && out[n-1].load == s.load {
			out[n-1].to = s.to
			continue
		}
		out = append(out, s)
	}
	return out
}

// wouldPrune reports, without pruning, whether filterTask would change a
// domain of tasks[pos]: the same tests on the same profile.
func (c *cumulative) wouldPrune(m *Model, pos int, withMin bool) bool {
	t, dem := c.tasks[pos], c.demandAt(pos)
	switch c.onRes(m, t) {
	case onResYes:
		if m.Fixed(t) {
			return false
		}
		if withMin && c.earliestFit(m, t, dem, m.StartMin(t), true) > m.StartMin(t) {
			return true
		}
		return c.latestFit(m, t, dem, m.StartMax(t), true) < m.StartMax(t)
	case onResMaybe:
		return c.earliestFit(m, t, dem, m.StartMin(t), false) > m.StartMax(t)
	}
	return false
}

// dirtyNeed is the dirty sweep's predicate for tasks[pos].
func (c *cumulative) dirtyNeed(m *Model, pos int, dLo, dHi int64) bool {
	t := c.tasks[pos]
	if m.Fixed(t) && t.resVar == nil {
		return false
	}
	if t.resVar != nil && c.resIndex >= 0 && c.onRes(m, t) == onResMaybe {
		return overlaps(m.StartMin(t), m.EndMax(t), dLo, dHi)
	}
	return overlaps(m.StartMax(t), m.EndMax(t), dLo, dHi)
}

// reachableScan is reachable as one scan over every task.
func (c *cumulative) reachableScan(m *Model) []int32 {
	var out []int32
	for pos, t := range c.tasks {
		st, d := c.onRes(m, t), c.durOf(t)
		live := st == onResMaybe || st == onResYes && !m.Fixed(t)
		yes := st == onResYes && !m.Fixed(t)
		if live && c.windowBlocked(m.StartMin(t), d, math.MaxInt64) ||
			yes && c.windowBlocked(m.StartMax(t), d, math.MaxInt64) {
			out = append(out, int32(pos))
		}
	}
	return out
}

// windowBlocked reports whether [k, k+d) overlaps a blocking segment that
// starts before limit.
func (c *cumulative) windowBlocked(k, d, limit int64) bool {
	for _, s := range c.segs {
		if s.from < limit && c.blocking(s) && overlaps(k, k+d, s.from, s.to) {
			return true
		}
	}
	return false
}

// dirtyCandidatesScan is dirtyCandidates as one scan over every task.
func (c *cumulative) dirtyCandidatesScan(m *Model, dLo, dHi int64) []int32 {
	var out []int32
	for pos, t := range c.tasks {
		st, d := c.onRes(m, t), c.durOf(t)
		if st == onResYes && !m.Fixed(t) && overlaps(m.StartMax(t), m.StartMax(t)+d, dLo, dHi) ||
			c.resIndex >= 0 && st == onResMaybe && c.windowBlocked(m.StartMin(t), d, dHi+c.dmax) {
			out = append(out, int32(pos))
		}
	}
	return out
}

// The profile a cumulative keeps across search moves — grown in place on
// the way down, reconciled with the store after a pop — must be the
// profile a fresh cumulative derives from the store, and must never be
// re-derived after the root. The time index must hand each sweep exactly
// the tasks a scan over every task picks by the same predicate, and those
// must include every task the sweep can prune. The walks mix one- and
// two-word resvars, removed and fixed resources, and slot and memory
// timetables over separate and over shared task lists.
func TestCachedProfileEqualsFromScratch(t *testing.T) {
	var fullCands, dirtyCands, prunable, bigModels, resFixes, wideSharedSteps int
	for seed := uint64(0); seed < 80; seed++ {
		rng := stats.NewStream(8181, seed)
		// Small models hit corner cases often; from seed 60 on, models big
		// enough to spread their tasks over many index buckets.
		tasks, span := 4+rng.IntN(8), 150
		if seed >= 60 {
			tasks, span = 30+rng.IntN(30), 1500
		}
		m := NewModel(int64(2*span + 100))
		// 70 resources make every resvar two words wide.
		numRes := []int{2, 3, 70}[rng.IntN(3)]
		// One combined resource; or per-resource slots plus a memory
		// dimension over the tasks with a memory demand; or per-resource
		// slots and memory over one task list, as the hetero brute-force
		// test posts them.
		shape := seed % 3
		direct, shared := shape != 0, shape == 2
		var all, memTasks []*Interval
		var mems []int64
		for i := 0; i < tasks; i++ {
			iv := m.NewInterval("t", int64(5+rng.IntN(40)))
			lo := int64(rng.IntN(span))
			m.SetStartBounds(iv, lo, lo+int64(rng.IntN(span)))
			if direct {
				m.NewResVar(iv, numRes)
				if mem := int64(rng.IntN(3)); mem > 0 || shared {
					memTasks = append(memTasks, iv)
					mems = append(mems, mem)
				}
			}
			all = append(all, iv)
		}
		if shared {
			memTasks = all
		}
		if direct {
			for r := 0; r < numRes; r++ {
				m.AddCumulative("slot", r, 2, all)
				if len(memTasks) > 0 {
					m.AddCumulativeDemands("mem", r, 3, memTasks, mems)
				}
			}
		} else {
			m.AddCumulative("combined", -1, 3, all)
		}
		e := newEngine(m)

		// check refreshes every cumulative and compares it with a fresh one.
		// It reports whether some profile is overloaded.
		check := func(step int, op string) (overloaded bool) {
			for _, c := range m.cumuls {
				where := fmt.Sprintf("seed %d step %d (%s) %s r%d", seed, step, op, c.name, c.resIndex)
				before := c.builds
				err := c.refresh(m)
				ref := newCumulative(c.name, c.resIndex, c.capacity, c.tasks, c.demands)
				ref.rebuildFull(m)
				if (err == nil) != (ref.over == 0) {
					t.Fatalf("%s: cached refresh says %v, from scratch %d segments over capacity", where, err, ref.over)
				}
				if step > 0 && c.builds != before {
					t.Fatalf("%s: profile rebuilt from its events after the root", where)
				}
				if err != nil {
					overloaded = true
					continue
				}
				if got, want := loadSteps(c.segs), loadSteps(ref.segs); !slices.Equal(got, want) {
					t.Fatalf("%s: cached profile %v, from scratch %v", where, got, want)
				}
				if got := loadSteps(c.segs); !slices.Equal(got, c.segs) {
					t.Fatalf("%s: profile %v is not canonical", where, c.segs)
				}
				for pos, task := range c.tasks {
					dem := c.demandAt(pos)
					for _, own := range []bool{false, true} {
						if g, w := c.earliestFit(m, task, dem, m.StartMin(task), own), ref.earliestFit(m, task, dem, m.StartMin(task), own); g != w {
							t.Fatalf("%s task %d: earliestFit %d, from scratch %d", where, pos, g, w)
						}
						if g, w := c.latestFit(m, task, dem, m.StartMax(task), own), ref.latestFit(m, task, dem, m.StartMax(task), own); g != w {
							t.Fatalf("%s task %d: latestFit %d, from scratch %d", where, pos, g, w)
						}
					}
				}
				// Asking again, with nothing changed, must not build anything.
				builds := c.builds
				if err := c.refresh(m); err != nil || c.builds != builds {
					t.Fatalf("%s: idle refresh built the profile again (err %v)", where, err)
				}

				// The full pass's candidates.
				full := c.reachable(m, nil)
				if want := c.reachableScan(m); !slices.Equal(full, want) {
					t.Fatalf("%s: index gives the full pass %v, a scan %v", where, full, want)
				}
				fullCands += len(full)
				for pos := range c.tasks {
					if c.wouldPrune(m, pos, true) {
						prunable++
						if _, found := slices.BinarySearch(full, int32(pos)); !found {
							t.Fatalf("%s: the full pass can prune task %d, which is not among its candidates %v", where, pos, full)
						}
					}
				}
				// The dirty sweep's candidates, for a region around each
				// blocking run.
				for a, b, i, ok := c.blockRun(0); ok; a, b, i, ok = c.blockRun(i) {
					for _, box := range [][2]int64{{a, b}, {a + (b-a)/2, b}, {a - 7, a + 1}} {
						got := c.dirtyCandidates(m, box[0], box[1], nil)
						if want := c.dirtyCandidatesScan(m, box[0], box[1]); !slices.Equal(got, want) {
							t.Fatalf("%s: index gives the dirty sweep over %v %v, a scan %v", where, box, got, want)
						}
						dirtyCands += len(got)
						for pos := range c.tasks {
							if c.dirtyNeed(m, pos, box[0], box[1]) && c.wouldPrune(m, pos, false) {
								if _, found := slices.BinarySearch(got, int32(pos)); !found {
									t.Fatalf("%s: the dirty sweep over %v can prune task %d, which is not among its candidates %v", where, box, pos, got)
								}
							}
						}
					}
				}
			}
			return overloaded
		}

		if check(0, "root") {
			continue // the draw is infeasible at the root
		}
		if seed >= 60 {
			bigModels++
		}
		for step := 1; step <= 80; step++ {
			iv := all[rng.IntN(len(all))]
			lo, hi := m.StartMin(iv), m.StartMax(iv)
			op := ""
			var err error
			switch k := rng.IntN(11); {
			case k < 2:
				op = "push"
				e.store.Push()
			case k < 5:
				op = "fix"
				err = e.fixStart(iv, lo+int64(rng.IntN(int(hi-lo)+1)))
			case k < 6:
				op = "raise min"
				err = e.setStartMin(iv, lo+int64(rng.IntN(int(hi-lo)+1)))
			case k < 7:
				op = "lower max"
				err = e.setStartMax(iv, hi-int64(rng.IntN(int(hi-lo)+1)))
			case k < 9 && iv.resVar != nil:
				op = "remove resource"
				err = e.removeRes(iv.resVar, rng.IntN(numRes))
			case k < 10 && iv.resVar != nil:
				op = "fix resource"
				if err = e.fixRes(iv.resVar, rng.IntN(numRes)); err == nil {
					resFixes++
				}
			default:
				if e.store.Level() == 0 {
					continue
				}
				op = "pop"
				e.pop()
			}
			if shared && numRes == 70 {
				wideSharedSteps++
			}
			// A failed move leaves the store in a state no propagator is asked
			// about; that and an overloaded profile are where the search
			// backtracks.
			if err != nil || check(step, op) {
				if e.store.Level() == 0 {
					break
				}
				e.pop()
				if check(step, "pop after failure") {
					t.Fatalf("seed %d step %d: still overloaded after undoing the level", seed, step)
				}
			}
		}
	}
	t.Logf("%d full-pass and %d dirty-sweep candidates compared, %d prunable tasks covered, %d big models searched, %d resources fixed, %d steps on shared two-word models",
		fullCands, dirtyCands, prunable, bigModels, resFixes, wideSharedSteps)
	if prunable == 0 || bigModels == 0 || resFixes == 0 || wideSharedSteps == 0 {
		t.Error("the instances left no task to prune, no big model feasible at the root, no resource fixed or no shared two-word model searched")
	}
}
