package cp

import "math"

// phaseBarrier implements Constraint 3 for a whole job at once: every
// successor (reduce task) starts at or after the max completion time of
// the predecessors (the job's map tasks). Grouping all successors into one
// propagator keeps the cost per wake at O(|preds| + |succs|) instead of
// O(|preds| * |succs|), which matters for jobs with thousands of tasks.
//
// A run costs what changed since the last one. Between pops the pruned
// bounds only tighten, so the predecessors' largest EndMin (lb) only rises
// and the successors' smallest StartMax (latest) only falls: the engine
// hands the propagator every woken interval (noteChange), which folds its
// bound into pendLB or pendLatest, and a run sweeps the successors only
// when lb rose past the one its last run derived, and the predecessors
// only when latest fell or a duration-table predecessor's DurMin may have
// risen. A sweep it skips would have changed nothing, and the sweeps it
// makes are a full recompute's loops in its order, so the domain changes
// and wakes are those a full recompute makes. The first run, and the first
// run after any pop, is that full recompute.
type phaseBarrier struct {
	preds []*Interval
	succs []*Interval

	// What the last run derived, valid while primed and the store has not
	// popped since (pops).
	primed bool
	pops   int64
	lb     int64
	latest int64
	// What the wakes since the last run noted: the largest EndMin of a
	// woken predecessor, the smallest StartMax of a woken successor, and
	// whether a duration-table predecessor's resvar narrowed.
	pendLB     int64
	pendLatest int64
	durMoved   bool
}

// noteChange folds a wake into the pending bounds. pos indexes the
// barrier's watch positions: preds, then succs, then the resvars of the
// duration-table preds at len(preds)+len(succs)+i for preds[i].
func (p *phaseBarrier) noteChange(m *Model, pos int) {
	np, ns := len(p.preds), len(p.succs)
	switch {
	case pos < np:
	case pos < np+ns:
		if v := m.StartMax(p.succs[pos-np]); v < p.pendLatest {
			p.pendLatest = v
		}
		return
	default:
		pos -= np + ns
		p.durMoved = true
	}
	if v := m.EndMin(p.preds[pos]); v > p.pendLB {
		p.pendLB = v
	}
}

func (p *phaseBarrier) propagate(e *engine) error {
	m := e.m
	full := !p.primed || p.pops != e.store.pops
	lb, latest := max(p.lb, p.pendLB), min(p.latest, p.pendLatest)
	sweepPreds := full || p.durMoved || latest < p.latest
	p.pendLB, p.pendLatest, p.durMoved = 0, math.MaxInt64, false
	if full {
		p.primed, p.pops = true, e.store.pops
		// Latest finishing predecessor, by lower bound (the paper's LFMT).
		lb = 0
		for _, pr := range p.preds {
			lb = max(lb, m.EndMin(pr))
		}
	}
	if full || lb > p.lb {
		// Earliest latest-start among successors.
		latest = math.MaxInt64
		for _, su := range p.succs {
			if err := e.setStartMin(su, lb); err != nil {
				return err
			}
			latest = min(latest, m.StartMax(su))
		}
		sweepPreds = sweepPreds || latest < p.latest
	}
	p.lb, p.latest = lb, latest
	if !sweepPreds {
		return nil
	}
	// Every pred must end by the time the tightest successor can still
	// start. DurMin keeps the deduction sound for heterogeneous preds: only
	// the fastest remaining mode bounds how late the start may be.
	for _, pr := range p.preds {
		if err := e.setStartMax(pr, latest-m.DurMin(pr)); err != nil {
			return err
		}
	}
	return nil
}

// lateness implements Constraint 4 (reified): if the job's last terminal
// task must end after the deadline, late = 1. Conversely, deciding late = 0
// imposes the deadline on every terminal task. When the job provably meets
// its deadline, late is fixed to 0, which is dominance-safe under the
// minimization objective.
//
// Like phaseBarrier, a run costs what changed: between pops the largest
// EndMin of the terminals (lb) only rises and is kept up to date from the
// woken terminals, and every EndMax only falls, so "every terminal ends by
// the deadline" is tracked by a witness, the first terminal still past it
// (past), which moves forward only when the witness itself changed. Once
// late is 0 the deadline is enforced on every terminal once; after that
// only a duration-table terminal's bound can tighten, when its resvar
// narrows, and that sends the run through the terminal loop again.
type lateness struct {
	terminals []*Interval
	deadline  int64
	late      *Bool

	// What the last run derived, valid while primed and the store has not
	// popped since (pops): lb, the witness (len(terminals) when none), and
	// whether the deadline has been enforced on every terminal.
	primed   bool
	pops     int64
	lb       int64
	past     int
	enforced bool
	// What the wakes since the last run noted: the largest EndMin of a
	// woken terminal, whether the witness was woken, and whether a
	// duration-table terminal's resvar narrowed.
	pendLB    int64
	pastMoved bool
	durMoved  bool
}

// noteChange folds a wake into the pending state. pos indexes terminals,
// and a duration-table terminal's resvar at len(terminals)+i.
func (p *lateness) noteChange(m *Model, pos int) {
	if n := len(p.terminals); pos >= n {
		pos -= n
		p.durMoved = true
	}
	if v := m.EndMin(p.terminals[pos]); v > p.pendLB {
		p.pendLB = v
	}
	if pos == p.past {
		p.pastMoved = true
	}
}

func (p *lateness) propagate(e *engine) error {
	m := e.m
	ts := p.terminals
	full := !p.primed || p.pops != e.store.pops
	lb, past := max(p.lb, p.pendLB), p.past
	scan, durMoved := p.pastMoved, p.durMoved
	p.pendLB, p.pastMoved, p.durMoved = 0, false, false
	if full {
		p.primed, p.pops, p.enforced = true, e.store.pops, false
		lb, past, scan = 0, 0, true
		for _, t := range ts {
			lb = max(lb, m.EndMin(t))
		}
	}
	if scan {
		for past < len(ts) && m.EndMax(ts[past]) <= p.deadline {
			past++
		}
	}
	p.lb, p.past = lb, past
	if lb > p.deadline {
		// The job cannot meet its deadline any more.
		if err := e.setBool(p.late, 1); err != nil {
			return err
		}
	} else if past == len(ts) {
		// The job is guaranteed on time.
		if err := e.setBool(p.late, 0); err != nil {
			return err
		}
	}
	if m.BoolMax(p.late) == 0 && (!p.enforced || durMoved) {
		// late is decided 0: enforce the deadline on all terminals (via the
		// fastest remaining mode, the sound bound for heterogeneous tasks).
		p.enforced = true
		for _, t := range ts {
			if err := e.setStartMax(t, p.deadline-m.DurMin(t)); err != nil {
				return err
			}
		}
	}
	return nil
}

// sumLE implements the branch-and-bound cut Σ late_j <= bound.
type sumLE struct {
	bools []*Bool
	bound int
}

func (p *sumLE) propagate(e *engine) error {
	m := e.m
	forced := 0
	for _, b := range p.bools {
		if m.BoolMin(b) == 1 {
			forced++
		}
	}
	if forced > p.bound {
		return errFail
	}
	if forced == p.bound {
		// No remaining job may be late.
		for _, b := range p.bools {
			if !m.BoolFixed(b) {
				if err := e.setBool(b, 0); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
