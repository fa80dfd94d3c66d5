package cp

import (
	"fmt"
	"slices"
	"testing"

	"mrcprm/internal/stats"
)

// The phase barrier and the lateness constraint run on what changed since
// their last run. Their full-recompute forms below are the oracle: a model
// solved with them in place must search exactly as one solved with the
// incremental propagators, decision for decision.

// oracleBarrier is phaseBarrier recomputed from every pred and succ on
// every run.
type oracleBarrier struct {
	preds []*Interval
	succs []*Interval
}

func (p *oracleBarrier) propagate(e *engine) error {
	m := e.m
	var lb int64
	for _, pr := range p.preds {
		if end := m.EndMin(pr); end > lb {
			lb = end
		}
	}
	latest := int64(1<<63 - 1)
	for _, su := range p.succs {
		if err := e.setStartMin(su, lb); err != nil {
			return err
		}
		if v := m.StartMax(su); v < latest {
			latest = v
		}
	}
	for _, pr := range p.preds {
		if err := e.setStartMax(pr, latest-m.DurMin(pr)); err != nil {
			return err
		}
	}
	return nil
}

// oracleLateness is lateness recomputed from every terminal on every run.
type oracleLateness struct {
	terminals []*Interval
	deadline  int64
	late      *Bool
}

func (p *oracleLateness) propagate(e *engine) error {
	m := e.m
	var lbComplete, ubComplete int64
	for _, t := range p.terminals {
		if v := m.EndMin(t); v > lbComplete {
			lbComplete = v
		}
		if v := m.EndMax(t); v > ubComplete {
			ubComplete = v
		}
	}
	if lbComplete > p.deadline {
		if err := e.setBool(p.late, 1); err != nil {
			return err
		}
	} else if ubComplete <= p.deadline {
		if err := e.setBool(p.late, 0); err != nil {
			return err
		}
	}
	if m.BoolMax(p.late) == 0 {
		for _, t := range p.terminals {
			if err := e.setStartMax(t, p.deadline-m.DurMin(t)); err != nil {
				return err
			}
		}
	}
	return nil
}

// useOracles swaps every phase barrier and lateness constraint of m for
// its full-recompute oracle, at the same propagator index, so the engine
// wakes it from the same watch lists (and, not knowing its type, hands it
// no change notes). It returns how many it swapped.
func useOracles(m *Model) int {
	n := 0
	for i, p := range m.props {
		switch p := p.(type) {
		case *phaseBarrier:
			m.props[i] = &oracleBarrier{preds: p.preds, succs: p.succs}
			n++
		case *lateness:
			m.props[i] = &oracleLateness{terminals: p.terminals, deadline: p.deadline, late: p.late}
			n++
		}
	}
	return n
}

// buildPrecedenceInstance builds into m, reset first, workflow jobs whose
// tasks form a random DAG (the TaskPrecedence generalization): one barrier
// per task with predecessors, lateness on the tasks without successors.
// Each task has a resvar over numRes unit resources and, with hetero, a
// duration table in two speed classes.
func buildPrecedenceInstance(m *Model, rng *stats.Stream, nJobs, numRes int, hetero bool) {
	m.Reset(500_000)
	var all []*Interval
	var lates []*Bool
	for j := 0; j < nJobs; j++ {
		n := 2 + rng.IntN(7)
		due := int64(60 + 25*j + rng.IntN(80))
		ivs := make([]*Interval, n)
		for i := range ivs {
			fast := int64(3 + rng.IntN(20))
			dur := fast
			if hetero {
				dur = 2 * fast
			}
			iv := m.NewInterval("w", dur)
			iv.JobKey, iv.Due = j, due
			m.NewResVar(iv, numRes)
			if hetero {
				durs := make([]int64, numRes)
				for r := range durs {
					durs[r] = fast
					if r%2 == 1 {
						durs[r] = 2 * fast
					}
				}
				m.SetResDurations(iv, durs)
			}
			ivs[i] = iv
		}
		hasSucc := make([]bool, n)
		for i := 1; i < n; i++ {
			var preds []*Interval
			for k := 0; k < i; k++ {
				if rng.IntN(3) == 0 {
					preds = append(preds, ivs[k])
					hasSucc[k] = true
				}
			}
			m.AddPhaseBarrier(preds, []*Interval{ivs[i]})
		}
		var terms []*Interval
		for i, iv := range ivs {
			if !hasSucc[i] {
				terms = append(terms, iv)
			}
		}
		late := m.NewBool("late")
		m.AddLateness(terms, due, late)
		lates = append(lates, late)
		all = append(all, ivs...)
	}
	for r := 0; r < numRes; r++ {
		m.AddCumulative("res", r, 1, all)
	}
	m.Minimize(lates)
}

// oracleCase builds one model; the same case builds the same model twice.
type oracleCase struct {
	name      string
	build     func(m *Model)
	nodeLimit int64
}

func oracleCases() []oracleCase {
	var cases []oracleCase
	for seed := uint64(1); seed <= 12; seed++ {
		cases = append(cases,
			oracleCase{fmt.Sprintf("uniform/%d", seed), func(m *Model) {
				buildRandomInstance(m, stats.NewStream(seed, 41), 6+int(seed%5)*4, 8, 3, 2, seed%2 == 0)
			}, 1500},
			oracleCase{fmt.Sprintf("hetero/%d", seed), func(m *Model) {
				heteroInstance(m, 900+seed, 2+int(seed%3), 6+int(seed%4)*3, 6)
			}, 1500},
			oracleCase{fmt.Sprintf("precedence/%d", seed), func(m *Model) {
				buildPrecedenceInstance(m, stats.NewStream(seed, 43), 5+int(seed%4)*2, 2+int(seed%2), false)
			}, 1500},
			oracleCase{fmt.Sprintf("precedence-hetero/%d", seed), func(m *Model) {
				buildPrecedenceInstance(m, stats.NewStream(seed, 47), 5+int(seed%4)*2, 2+int(seed%3), true)
			}, 1500},
		)
	}
	return cases
}

// errRunaway stops a search that has picked far more decisions than its
// oracle: without an incumbent no limit applies, so a propagator that
// prunes too little can make the first descent exhaustive.
type errRunaway struct{}

// solveCapped solves m on the node limit, panicking out of the search with
// errRunaway once it has picked maxPicks decisions.
func solveCapped(m *Model, nodeLimit, maxPicks int64) (res Result, ranAway bool) {
	s := NewSolver(m, Params{NodeLimit: nodeLimit})
	picks := int64(0)
	s.onPick = func(decision, pickStatus) {
		if picks++; picks > maxPicks {
			panic(errRunaway{})
		}
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errRunaway); !ok {
				panic(r)
			}
			ranAway = true
		}
	}()
	return s.Solve(), false
}

// The incremental barrier and lateness search exactly as their
// full-recompute oracles: on uniform, duration-table and precedence models
// under node limits, the same starts, resources and objective after the
// same nodes, backtracks and propagations. Some cases must backtrack, so
// the runs after pops are exercised as well as the descents.
func TestIncrementalPropagatorsMatchOracle(t *testing.T) {
	backtracked := 0
	for _, c := range oracleCases() {
		m := new(Model)
		c.build(m)
		if useOracles(m) == 0 {
			t.Fatalf("%s: no barrier or lateness constraint to swap", c.name)
		}
		want := NewSolver(m, Params{NodeLimit: c.nodeLimit}).Solve()
		c.build(m)
		got, ranAway := solveCapped(m, c.nodeLimit, 4*(want.Search.Nodes+want.Search.Backtracks)+100)
		if ranAway {
			t.Errorf("%s: the search ran away; the oracle's took %d nodes", c.name, want.Search.Nodes)
			continue
		}
		if got.Status != want.Status || countersOf(&got) != countersOf(&want) {
			t.Errorf("%s: status %v counters %+v, oracle %v %+v",
				c.name, got.Status, countersOf(&got), want.Status, countersOf(&want))
			continue
		}
		if !slices.Equal(got.Starts, want.Starts) || !slices.Equal(got.Res, want.Res) ||
			!slices.Equal(got.Lates, want.Lates) {
			t.Errorf("%s: solution differs from the oracle's", c.name)
		}
		if got.Search.Backtracks > 0 {
			backtracked++
		}
	}
	if backtracked < 10 {
		t.Errorf("only %d cases backtracked; the oracle comparison needs searches that pop", backtracked)
	}
}
