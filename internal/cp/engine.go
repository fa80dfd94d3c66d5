package cp

import (
	"errors"
	"math"
)

// errFail signals an inconsistent state; the search backtracks on it.
var errFail = errors.New("cp: inconsistent")

// propagator is a filtering algorithm over the variables it watches.
type propagator interface {
	// propagate prunes domains through the engine; it returns errFail on
	// wipe-out and nil when a local fixpoint is reached.
	propagate(e *engine) error
}

// engine owns the propagation queue and performs all domain mutations so
// that watchers are woken consistently.
type engine struct {
	m     *Model
	store *Store
	// queue is a reusable ring: qhead indexes the next propagator to pop,
	// and the backing array is recycled across propagate calls (and thus
	// across all search rounds) instead of being re-sliced away.
	queue   []int
	qhead   int
	inQueue []bool
	running int // index of the propagator currently executing, or -1
	// propagations counts propagator executions (queue pops), the search's
	// basic unit of filtering work; surfaced in cp.SearchStats.
	propagations int64
	// touched lists, once each, the intervals whose start bounds,
	// postponement flag or resvar domain changed — by setStartMin,
	// setStartMax, postpone, removeRes or fixRes, or by a pop undoing one of
	// them — since the solver last drained the list; it is how the search
	// keeps its candidate heap current without rescanning the model.
	touched   []int32
	touchedFl []bool
	// sweep is the candidate list of the running cumulative's sweep, shared
	// because sweeps never nest.
	sweep []int32
	// runs holds, during a wake, the member props of the families the
	// watch list has named and the wake has not yet scheduled.
	runs [][]int32
}

// newEngine prepares m's propagation engine for one solve of m, sizing the
// queue and the store's level stack and trail from the model so that the
// search's first descent does not grow them step by step. The engine and
// its buffers belong to the model and outlive the solve; Reset keeps them.
func newEngine(m *Model) *engine {
	n := len(m.intervals)
	// A descent opens one level per decision — a start per interval, a
	// resource per resvar — and trails at least the two bounds of every
	// interval it fixes. The pruning along the way comes on top — a fifth
	// more on a typical reschedule, nearly twice as much again on a
	// 2000-task batch — and is left to append. The store keeps what it grew
	// across Resets, and a batch solve, like a manager, builds into a model
	// it recycles (core's pooled round), so only the first solve of a size
	// pays for the growth; reserving for the batch's pruning up front would
	// cost every reschedule more.
	open := 0
	for _, iv := range m.intervals {
		if !m.Fixed(iv) {
			open++
		}
	}
	m.store.reserve(n+len(m.resvars)+1, 2*open)
	// A solve starts the barriers and lateness constraints afresh.
	for _, p := range m.barriers {
		p.primed = false
	}
	for _, p := range m.lates {
		p.primed = false
	}
	e := &m.eng
	*e = engine{
		m: m, store: m.store, running: -1,
		queue:     emptied(e.queue, len(m.props)),
		inQueue:   cleared(e.inQueue, len(m.props)),
		touched:   emptied(e.touched, n),
		touchedFl: cleared(e.touchedFl, n),
		sweep:     e.sweep[:0],
		runs:      e.runs[:0],
	}
	return e
}

// schedule enqueues a propagator unless it is already queued or currently
// running (self-wakes within a run are handled by the propagator's own
// internal fixpoint loops).
func (e *engine) schedule(idx int) {
	if idx == e.running || e.inQueue[idx] {
		return
	}
	e.inQueue[idx] = true
	e.queue = append(e.queue, idx)
}

func (e *engine) scheduleAll() {
	for i := range e.m.props {
		e.schedule(i)
	}
}

// propagate runs queued propagators to a fixpoint. On failure the queue is
// drained and errFail returned.
func (e *engine) propagate() error {
	for e.qhead < len(e.queue) {
		idx := e.queue[e.qhead]
		e.qhead++
		e.inQueue[idx] = false
		e.running = idx
		e.propagations++
		err := e.m.props[idx].propagate(e)
		e.running = -1
		if err != nil {
			for _, q := range e.queue[e.qhead:] {
				e.inQueue[q] = false
			}
			e.queue = e.queue[:0]
			e.qhead = 0
			return err
		}
	}
	e.queue = e.queue[:0]
	e.qhead = 0
	return nil
}

// touch records that the search-visible state of interval id changed.
func (e *engine) touch(id int32) {
	if !e.touchedFl[id] {
		e.touchedFl[id] = true
		e.touched = append(e.touched, id)
	}
}

// clearTouched empties the touched list once the solver has consumed it.
func (e *engine) clearTouched() {
	for _, id := range e.touched {
		e.touchedFl[id] = false
	}
	e.touched = e.touched[:0]
}

// pop closes the current decision level like Store.Pop and marks every
// interval the level had changed as touched, since the pop changes it back.
// The cumulatives the interval sits on hear of it too, unless only its
// postponement flag changed: they undo a level by reconciling exactly those
// tasks with the store. A family hears of it after the pop, which restores
// the domain that names the members to note (see family). The phase
// barriers and lateness constraints do not: their first run after a pop
// recomputes from the store. Every pop of a search goes through here.
func (e *engine) pop() {
	m := e.m
	trail := e.store.levelTrail()
	// Pop only shortens the trail, so the level's entries stay readable
	// until the next write.
	e.store.Pop()
	last := int32(-1)
	for _, te := range trail {
		id := e.store.owner[te.idx]
		if id < 0 {
			continue
		}
		e.touch(id)
		if te.idx == m.intervals[id].base+2 || id == last {
			continue
		}
		last = id
		for _, w := range m.ivWatch[id] {
			if w.prop < 0 {
				m.families[^w.prop].note(m, int(w.pos))
			} else if c, ok := m.props[w.prop].(*cumulative); ok {
				c.noteChange(int(w.pos))
			}
		}
	}
}

// popAll closes every open level through pop.
func (e *engine) popAll() {
	for e.store.Level() > 0 {
		e.pop()
	}
}

// wake notifies the propagators on a watch list, handing each the watch
// position of the changed variable, and schedules them in ascending prop
// order. A family entry notes the members the interval's domain holds and
// schedules every member, merged into that order.
func (e *engine) wake(list []watch) {
	m := e.m
	runs := e.runs[:0]
	for _, w := range list {
		if w.prop < 0 {
			f := m.families[^w.prop]
			f.note(m, int(w.pos))
			runs = append(runs, f.props)
			continue
		}
		if len(runs) > 0 {
			runs = e.scheduleBelow(runs, w.prop)
		}
		switch p := m.props[w.prop].(type) {
		case *cumulative:
			p.noteChange(int(w.pos))
		case *phaseBarrier:
			p.noteChange(m, int(w.pos))
		case *lateness:
			p.noteChange(m, int(w.pos))
		}
		e.schedule(int(w.prop))
	}
	if len(runs) > 0 {
		e.scheduleBelow(runs, math.MaxInt32)
		e.runs = runs[:0]
	}
}

func (e *engine) wakeInterval(iv *Interval) {
	e.wake(e.m.ivWatch[iv.id])
}

func (e *engine) wakeBool(b *Bool) {
	for _, p := range e.m.boolWatch[b.id] {
		e.schedule(p)
	}
}

func (e *engine) wakeResVar(rv *ResVar) {
	e.wake(e.m.rvWatch[rv.id])
}

// setStartMin raises an interval's start lower bound. Raising the bound
// also clears the set-times postponement flag, since the task's situation
// has changed (classic set-times rule).
func (e *engine) setStartMin(iv *Interval, v int64) error {
	cur := e.store.get(iv.base + 0)
	if v <= cur {
		return nil
	}
	if v > e.store.get(iv.base+1) {
		return errFail
	}
	e.store.set(iv.base+0, v)
	e.store.set(iv.base+2, 0)
	e.touch(int32(iv.id))
	e.wakeInterval(iv)
	return nil
}

// setStartMax lowers an interval's start upper bound.
func (e *engine) setStartMax(iv *Interval, v int64) error {
	cur := e.store.get(iv.base + 1)
	if v >= cur {
		return nil
	}
	if v < e.store.get(iv.base+0) {
		return errFail
	}
	e.store.set(iv.base+1, v)
	e.touch(int32(iv.id))
	e.wakeInterval(iv)
	return nil
}

// fixStart decides an interval's start time.
func (e *engine) fixStart(iv *Interval, v int64) error {
	if err := e.setStartMin(iv, v); err != nil {
		return err
	}
	return e.setStartMax(iv, v)
}

// postpone marks an interval postponed for the set-times search; the flag
// is trailed, so backtracking clears it.
func (e *engine) postpone(iv *Interval) {
	e.store.set(iv.base+2, 1)
	e.touch(int32(iv.id))
}

// setBool decides a boolean variable.
func (e *engine) setBool(b *Bool, v int64) error {
	min, max := e.store.get(b.base+0), e.store.get(b.base+1)
	if min == max {
		if min != v {
			return errFail
		}
		return nil
	}
	e.store.set(b.base+0, v)
	e.store.set(b.base+1, v)
	e.wakeBool(b)
	return nil
}

// removeRes removes resource r from a resvar's domain.
func (e *engine) removeRes(rv *ResVar, r int) error {
	w := rv.base + int32(r/64)
	word := e.store.get(w)
	bit := int64(1) << (r % 64)
	if word&bit == 0 {
		return nil
	}
	e.store.set(w, word&^bit)
	e.touch(int32(rv.iv.id))
	if e.m.ResDomainSize(rv) == 0 {
		return errFail
	}
	e.wakeResVar(rv)
	return nil
}

// fixRes reduces a resvar's domain to the single resource r.
func (e *engine) fixRes(rv *ResVar, r int) error {
	if !e.m.ResAllowed(rv, r) {
		return errFail
	}
	changed := false
	for w := 0; w < rv.words; w++ {
		var word int64
		if w == r/64 {
			word = 1 << (r % 64)
		}
		if e.store.get(rv.base+int32(w)) != word {
			e.store.set(rv.base+int32(w), word)
			changed = true
		}
	}
	if changed {
		e.touch(int32(rv.iv.id))
		e.wakeResVar(rv)
	}
	return nil
}
