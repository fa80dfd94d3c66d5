package cp

import (
	"fmt"
	"testing"
)

// hintTestModel builds a contested combined-mode model: eight tasks on a
// capacity-2 resource with staggered deadlines, so which jobs end up late
// depends on the ordering and the objective is neither zero nor trivially
// tight. Each call returns a fresh, identical model.
func hintTestModel() (*Model, []*Interval) {
	m := NewModel(10_000)
	var ivs []*Interval
	var lates []*Bool
	for i := 0; i < 8; i++ {
		iv := m.NewInterval(fmt.Sprintf("t%d", i), 10+int64(i%3)*5)
		m.SetStartBounds(iv, 0, 9_000)
		ivs = append(ivs, iv)
		late := m.NewBool(fmt.Sprintf("l%d", i))
		m.AddLateness([]*Interval{iv}, int64(12+5*i), late)
		lates = append(lates, late)
	}
	m.AddCumulative("r", -1, 2, ivs)
	m.Minimize(lates)
	return m, ivs
}

// A nil hint and a hint that does not cover the model must leave the solve
// bit-identical to a hint-unaware one: same assignment, same objective,
// same node count.
func TestHintNilOrShortIsIdenticalToCold(t *testing.T) {
	m1, _ := hintTestModel()
	cold := solveOK(t, m1, Params{})

	for name, h := range map[string]*Hint{
		"nil":   nil,
		"short": {Starts: []int64{5}}, // covers 1 of 8 intervals
		"empty": {},
	} {
		m2, _ := hintTestModel()
		r := solveOK(t, m2, Params{Hint: h})
		if r.Search.HintSeeded {
			t.Fatalf("%s hint: HintSeeded = true, want cold solve", name)
		}
		if r.Objective != cold.Objective || r.Search.Nodes != cold.Search.Nodes || r.Status != cold.Status {
			t.Fatalf("%s hint diverged: obj %d/%d nodes %d/%d status %v/%v",
				name, r.Objective, cold.Objective, r.Search.Nodes, cold.Search.Nodes, r.Status, cold.Status)
		}
		for i := range cold.Starts {
			if r.Starts[i] != cold.Starts[i] {
				t.Fatalf("%s hint: start[%d] = %d, want %d", name, i, r.Starts[i], cold.Starts[i])
			}
		}
	}
}

// Seeding a solve with a prior solution must be accepted (HintSeeded), must
// reproduce that solution's objective or better, and must skip the proof
// phase: a hinted solve over a nonzero objective reports StatusFeasible.
func TestHintFromPriorSolutionSeeds(t *testing.T) {
	m1, _ := hintTestModel()
	cold := solveOK(t, m1, Params{})
	if cold.Objective == 0 {
		t.Fatal("test model not contested: cold objective is 0")
	}

	m2, _ := hintTestModel()
	r := solveOK(t, m2, Params{Hint: &Hint{Starts: cold.Starts}})
	if !r.Search.HintSeeded {
		t.Fatal("hint covering the model was not seeded")
	}
	if r.Objective > cold.Objective {
		t.Fatalf("hinted objective %d worse than the hint's %d", r.Objective, cold.Objective)
	}
	if r.Search.HintObjective != r.Objective {
		t.Fatalf("HintObjective = %d, want repair objective %d", r.Search.HintObjective, r.Objective)
	}
	if r.Status != StatusFeasible {
		t.Fatalf("status = %v, want Feasible (hinted solves carry no proof)", r.Status)
	}
	for i := range cold.Starts {
		if r.Starts[i] != cold.Starts[i] {
			t.Fatalf("repair moved start[%d] to %d, hint said %d", i, r.Starts[i], cold.Starts[i])
		}
	}
}

// A hinted solve must also be internally deterministic: the same model and
// hint give the same result every time.
func TestHintDeterministicAcrossRuns(t *testing.T) {
	m0, _ := hintTestModel()
	cold := solveOK(t, m0, Params{})
	hint := &Hint{Starts: cold.Starts}

	var ref Result
	for run := 0; run < 3; run++ {
		m, _ := hintTestModel()
		r := solveOK(t, m, Params{Hint: hint})
		if run == 0 {
			ref = r
			continue
		}
		if r.Objective != ref.Objective {
			t.Fatalf("run %d: objective %d, want %d", run, r.Objective, ref.Objective)
		}
		for i := range ref.Starts {
			if r.Starts[i] != ref.Starts[i] {
				t.Fatalf("run %d: start[%d] = %d, want %d", run, i, r.Starts[i], ref.Starts[i])
			}
		}
	}
}

// garbageHints builds, for a model of n intervals, hints no prior solve
// could have produced.
var garbageHints = map[string]func(n int) *Hint{
	"beyond-horizon": func(n int) *Hint {
		h := &Hint{Starts: make([]int64, n)}
		for i := range h.Starts {
			h.Starts[i] = 999_999
		}
		return h
	},
	"negative": func(n int) *Hint {
		h := &Hint{Starts: make([]int64, n), Res: make([]int, n)}
		for i := range h.Starts {
			h.Starts[i] = -500
			h.Res[i] = 97 // out-of-range resource
		}
		return h
	},
	"all-colliding": func(n int) *Hint {
		return &Hint{Starts: make([]int64, n)} // every task at t=0
	},
}

// Garbage hints — starts beyond the window, negative, or misaligned with
// precedence — must never crash or produce an invalid solution; at worst
// the repair fails and the cold descent runs.
func TestHintGarbageIsHarmless(t *testing.T) {
	for name, mk := range garbageHints {
		m, ivs := hintTestModel()
		r := solveOK(t, m, Params{Hint: mk(len(ivs))})
		if err := m.VerifySolution(&r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
