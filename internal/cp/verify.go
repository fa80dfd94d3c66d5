package cp

import (
	"cmp"
	"fmt"
	"slices"
)

// VerifySolution is an independent checker used by tests and by the
// resource manager to validate a solver result against the model's
// constraints. It does not share code with the propagators: capacity is
// checked with a fresh sweep, precedence and lateness by direct evaluation.
// It reads only r and what the build posted; the sweep's event list is
// scratch the model keeps, so a check allocates nothing once the model has
// verified a solution of its size. It returns nil when the assignment
// satisfies every posted constraint.
func (m *Model) VerifySolution(r *Result) error {
	if !r.HasSolution() {
		return fmt.Errorf("cp: result status %v carries no solution", r.Status)
	}
	if len(r.Starts) != len(m.intervals) {
		return fmt.Errorf("cp: solution has %d starts for %d intervals", len(r.Starts), len(m.intervals))
	}
	// Bounds and matchmaking domains (against the original build-time
	// bounds, which include frozen-task pins).
	for i, iv := range m.intervals {
		st := r.Starts[i]
		if st < iv.origMin || st > iv.origMax {
			return fmt.Errorf("cp: interval %q start %d outside original bounds [%d,%d]",
				iv.Name, st, iv.origMin, iv.origMax)
		}
		if iv.resVar != nil {
			res := r.Res[i]
			if res < 0 || res >= iv.resVar.NumRes {
				return fmt.Errorf("cp: interval %q assigned invalid resource %d", iv.Name, res)
			}
		}
	}
	// Every posted constraint.
	for _, p := range m.props {
		if err := m.verifyProp(p, r); err != nil {
			return err
		}
	}
	return nil
}

func (m *Model) verifyProp(p propagator, r *Result) error {
	switch c := p.(type) {
	case *phaseBarrier:
		var lastEnd int64
		for _, pr := range c.preds {
			if end := r.Starts[pr.id] + m.resultDur(pr, r); end > lastEnd {
				lastEnd = end
			}
		}
		for _, su := range c.succs {
			if st := r.Starts[su.id]; st < lastEnd {
				return fmt.Errorf("cp: %q starts at %d before its predecessors end at %d",
					su.Name, st, lastEnd)
			}
		}
	case *lateness:
		var complete int64
		for _, t := range c.terminals {
			if end := r.Starts[t.id] + m.resultDur(t, r); end > complete {
				complete = end
			}
		}
		late := r.Lates[c.late.id]
		if complete > c.deadline && !late {
			return fmt.Errorf("cp: job completing at %d after deadline %d not marked late",
				complete, c.deadline)
		}
	case *sumLE:
		// The SumLE bound is a branch-and-bound cut that the solver
		// tightens below the incumbent's objective between rounds; the
		// incumbent intentionally predates the final bound, so there is
		// nothing to verify here.
	case *cumulative:
		if err := m.verifyCumulative(c, r); err != nil {
			return err
		}
	}
	return nil
}

// verifyEvent is one capacity change in verifyCumulative's sweep.
type verifyEvent struct {
	at    int64
	delta int64
}

func (m *Model) verifyCumulative(c *cumulative, r *Result) error {
	evs := m.verifyEvs[:0]
	for pos, t := range c.tasks {
		onThis := t.resVar == nil || c.resIndex < 0 || r.Res[t.id] == c.resIndex
		if !onThis {
			continue
		}
		st := r.Starts[t.id]
		dur, dem := m.resultDur(t, r), c.demandAt(pos)
		evs = append(evs, verifyEvent{st, dem}, verifyEvent{st + dur, -dem})
	}
	m.verifyEvs = evs
	// Every event of an instant applies before the load is checked, so
	// their order among themselves does not matter.
	slices.SortFunc(evs, func(a, b verifyEvent) int { return cmp.Compare(a.at, b.at) })
	var load int64
	i := 0
	for i < len(evs) {
		at := evs[i].at
		for i < len(evs) && evs[i].at == at {
			load += evs[i].delta
			i++
		}
		if load > c.capacity {
			return fmt.Errorf("cp: resource %q overloaded (%d > %d) at time %d",
				c.name, load, c.capacity, at)
		}
	}
	return nil
}

// resultDur is the duration iv actually runs for under the assignment in r:
// its mode duration on the chosen resource, or the uniform duration when no
// per-resource table was posted.
func (m *Model) resultDur(iv *Interval, r *Result) int64 {
	if len(iv.durs) == 0 {
		return iv.Dur
	}
	return iv.DurOn(r.Res[iv.id])
}
