package cp

import (
	"math/bits"
	"slices"
)

// family is a set of timetables AddCumulativeDemands posted with a resource
// index over one task list and one demand vector, at most one per
// resource: in direct mode, one pool's (or the memory dimension's)
// timetable on every machine. A task of the list carries one watch entry
// for the whole family, not one per member, and a change of the task notes
// only the members whose resource its domain still holds. That leaves every
// profile exactly where per-member entries left it:
//
//   - A task whose domain excludes a member's resource has no mandatory part
//     on that member (onRes is onResNo), and filterTask returns on onResNo
//     at once: noting it there would reconcile nothing and refilter nothing.
//   - Removing r from a domain turns the task's state on r's member from
//     Maybe into No, which is (0, 0) → (0, 0) on that timetable.
//   - Domains only shrink down a branch, so every member that held a part
//     for the task at a popped level has its resource in the domain the pop
//     restores; engine.pop notes the task after Store.Pop.
//
// The propagation queue is left as it was too: a wake schedules every
// member, in ascending prop order merged with the watch list's other
// entries, also the members the change left alone. Skipping those would
// move the work they still have pending, such as the full pass after a
// pop, to another point of the queue, and change the search.
type family struct {
	id      int
	tasks   []*Interval
	demands []int64
	members []*cumulative // in posting order, so ascending in prop
	props   []int32       // the members' props
	byRes   []int32       // byRes[r] indexes r's member in members; -1: none
}

// sameList reports whether a and b are one list: the same length over the
// same backing array.
func sameList[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// member returns the family's timetable of resource r, or nil.
func (f *family) member(r int) *cumulative {
	if r < 0 || r >= len(f.byRes) || f.byRes[r] < 0 {
		return nil
	}
	return f.members[f.byRes[r]]
}

// add makes c the family's member for c.resIndex.
func (f *family) add(c *cumulative) {
	for len(f.byRes) <= c.resIndex {
		f.byRes = append(f.byRes, -1)
	}
	f.byRes[c.resIndex] = int32(len(f.members))
	f.members = append(f.members, c)
	f.props = append(f.props, int32(c.prop))
	c.fam = f
}

// familyFor returns the family a timetable of resource r over tasks with
// the given demands joins: the first posted over the same list and demand
// vector that has no member for r yet, or a new one. isNew says the tasks
// need a watch entry for it.
func (m *Model) familyFor(tasks []*Interval, demands []int64, r int) (f *family, isNew bool) {
	for _, f := range m.families {
		if sameList(f.tasks, tasks) && (f.demands == nil) == (demands == nil) &&
			sameList(f.demands, demands) && f.member(r) == nil {
			return f, false
		}
	}
	m.families, f = extend(m.families)
	*f = family{
		id: len(m.families) - 1, tasks: tasks, demands: demands,
		members: f.members[:0], props: f.props[:0], byRes: f.byRes[:0],
	}
	return f, true
}

// note records that tasks[pos] changed, or that a pop restored it, on the
// members whose resource the task's domain holds — on all of them for a
// task without a resvar, which runs on every member — and marks the task
// for re-filing in the members' shared time index.
func (f *family) note(m *Model, pos int) {
	f.members[0].idx.note(pos)
	rv := f.tasks[pos].resVar
	if rv == nil {
		for _, c := range f.members {
			c.markChanged(pos)
		}
		return
	}
	for w := 0; w < rv.words; w++ {
		word := uint64(m.store.get(rv.base + int32(w)))
		for word != 0 {
			r := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if r >= len(f.byRes) {
				return
			}
			if k := f.byRes[r]; k >= 0 {
				f.members[k].markChanged(pos)
			}
		}
	}
}

// scheduleBelow schedules, in ascending order, every prop below limit that
// the ascending runs hold, and returns the runs with those props cut off.
// A task is in one or two families (a slot pool's, and the memory
// dimension's), which merge2 serves.
func (e *engine) scheduleBelow(runs [][]int32, limit int32) [][]int32 {
	switch len(runs) {
	case 1:
		runs[0], _ = e.merge2(runs[0], nil, limit)
		return runs
	case 2:
		runs[0], runs[1] = e.merge2(runs[0], runs[1], limit)
		return runs
	}
	for {
		best := -1
		for i, run := range runs {
			if len(run) > 0 && (best < 0 || run[0] < runs[best][0]) {
				best = i
			}
		}
		if best < 0 || runs[best][0] >= limit {
			return runs
		}
		e.schedule(int(runs[best][0]))
		runs[best] = runs[best][1:]
	}
}

// merge2 is scheduleBelow over the two runs a and b.
func (e *engine) merge2(a, b []int32, limit int32) ([]int32, []int32) {
	for {
		if len(b) == 0 || len(a) > 0 && a[0] < b[0] {
			if len(a) == 0 || a[0] >= limit {
				return a, b
			}
			e.schedule(int(a[0]))
			a = a[1:]
		} else {
			if b[0] >= limit {
				return a, b
			}
			e.schedule(int(b[0]))
			b = b[1:]
		}
	}
}

// onTimetable is a timetable a task runs on and the task's position there.
type onTimetable struct {
	c   *cumulative
	pos int
}

// timetablesOn appends to buf, in ascending prop order, the timetables iv
// runs on (onResYes): its resource's member of each family iv is in, every
// member for an interval without a resvar, and the combined timetables. It
// also returns how many timetables iv sits on, counting every member of its
// families.
func (m *Model) timetablesOn(iv *Interval, buf []onTimetable) ([]onTimetable, int) {
	fixed := -1
	if iv.resVar != nil {
		fixed = m.ResFixedValue(iv.resVar)
	}
	n := 0
	for _, w := range m.ivWatch[iv.id] {
		if w.prop < 0 {
			f := m.families[^w.prop]
			n += len(f.members)
			if iv.resVar == nil {
				for _, c := range f.members {
					buf = append(buf, onTimetable{c, int(w.pos)})
				}
			} else if c := f.member(fixed); c != nil {
				buf = append(buf, onTimetable{c, int(w.pos)})
			}
			continue
		}
		if c, ok := m.props[w.prop].(*cumulative); ok {
			n++
			if c.onRes(m, iv) == onResYes {
				buf = append(buf, onTimetable{c, int(w.pos)})
			}
		}
	}
	if len(buf) > 1 {
		// Families posted in interleaved orders can list their members out
		// of prop order; the sort is stable for a task listed twice on one.
		slices.SortStableFunc(buf, func(a, b onTimetable) int { return a.c.prop - b.c.prop })
	}
	return buf, n
}
