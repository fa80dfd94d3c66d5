package cp

import (
	"fmt"
	"testing"

	"mrcprm/internal/stats"
)

// pickScan is the branching rule as one linear scan over the model — the
// implementation the candidate heap replaced, kept as its oracle. It
// returns the decision and status pick must return in the current state,
// the winning key, and the number of keys it evaluated.
func (s *Solver) pickScan() (decision, pickStatus, [4]int64, int64) {
	m := s.m
	var best *Interval
	var bestKey [4]int64
	var keys int64
	undecided := false
	for _, iv := range m.intervals {
		needRes := iv.resVar != nil && m.ResFixedValue(iv.resVar) < 0
		needTime := !m.Fixed(iv)
		if !needRes && !needTime {
			continue
		}
		undecided = true
		if m.postponed(iv) {
			continue
		}
		keys++
		key := s.scanKey(iv)
		if best == nil || lessKey(key, bestKey) {
			best, bestKey = iv, key
		}
	}
	if best == nil {
		if undecided {
			return decision{}, pickDeadEnd, bestKey, keys
		}
		return decision{}, pickAllDone, bestKey, keys
	}
	if best.resVar != nil && m.ResFixedValue(best.resVar) < 0 {
		if s.hintActive {
			if r := s.params.Hint.res(best.id); r >= 0 && m.ResAllowed(best.resVar, r) {
				return decision{iv: best, res: r}, pickFound, bestKey, keys
			}
		}
		return decision{iv: best, res: s.pickResource(best)}, pickFound, bestKey, keys
	}
	return decision{iv: best, res: -1}, pickFound, bestKey, keys
}

func (s *Solver) scanKey(iv *Interval) [4]int64 {
	var boosted int64 = 1
	if hasKey(s.boost, iv.JobKey) {
		boosted = 0
	}
	return [4]int64{s.targetStart(iv), boosted, s.orderKey(iv), int64(iv.id)}
}

func lessKey(a, b [4]int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// pickAudit tallies what an audited solve exercised.
type pickAudit struct {
	picks     int64 // pick calls compared
	scanKeys  int64 // keys the scan evaluated over those calls
	boosted   int64 // picks made with a non-empty boost set (Phase B)
	hinted    int64 // picks made during a hint repair descent
	resPicks  int64 // resource decisions
	deadEnds  int64
	afterBack int64 // picks that followed a backtrack
}

func (a *pickAudit) add(b *pickAudit) {
	a.picks += b.picks
	a.scanKeys += b.scanKeys
	a.boosted += b.boosted
	a.hinted += b.hinted
	a.resPicks += b.resPicks
	a.deadEnds += b.deadEnds
	a.afterBack += b.afterBack
}

// auditPicks makes s check every decision pick returns against pickScan.
func auditPicks(t *testing.T, s *Solver, label string) *pickAudit {
	t.Helper()
	a := &pickAudit{}
	var lastBacktracks int64
	s.onPick = func(got decision, gotSt pickStatus) {
		want, wantSt, wantKey, keys := s.pickScan()
		a.picks++
		a.scanKeys += keys
		if len(s.boost) > 0 {
			a.boosted++
		}
		if s.hintActive {
			a.hinted++
		}
		if wantSt == pickFound && want.res >= 0 {
			a.resPicks++
		}
		if wantSt == pickDeadEnd {
			a.deadEnds++
		}
		if s.backtracks != lastBacktracks {
			a.afterBack++
			lastBacktracks = s.backtracks
		}
		if got == want && gotSt == wantSt {
			return
		}
		describe := func(d decision, st pickStatus, key [4]int64) string {
			if st != pickFound {
				return fmt.Sprintf("status %d", st)
			}
			return fmt.Sprintf("interval %d res %d key %v", d.iv.id, d.res, key)
		}
		var gotKey [4]int64
		if gotSt == pickFound {
			gotKey = s.scanKey(got.iv)
		}
		t.Fatalf("%s: node %d (round %d, %d backtracks): heap chose %s, scan chose %s",
			label, s.nodes, s.curRound, s.backtracks,
			describe(got, gotSt, gotKey), describe(want, wantSt, wantKey))
	}
	return a
}

// solveAudited solves m with every pick checked against the scan.
func solveAudited(t *testing.T, m *Model, p Params, label string) (Result, *pickAudit) {
	t.Helper()
	s := NewSolver(m, p)
	a := auditPicks(t, s, label)
	return s.Solve(), a
}

var allOrderings = []OrderingStrategy{OrderEDF, OrderJobID, OrderLeastLaxity}

// The candidate heap must return, at every node of every kind of solve, the
// decision the linear scan returns.
func TestPickMatchesScanAtEveryNode(t *testing.T) {
	var total pickAudit
	var limitHits, hintSeeds, hintFails int

	// Combined models, loose and tight; the tight ones leave late jobs for
	// Phase B to boost and backtrack in Phase C until the node limit.
	for seed := uint64(0); seed < 24; seed++ {
		for _, ord := range allOrderings {
			tight := seed%2 == 0
			build := func() *Model {
				rng := stats.NewStream(4242, seed)
				return buildRandomInstance(new(Model), rng, 2+int(seed%7), 5, int64(1+seed%3), int64(1+seed%2), tight).m
			}
			label := fmt.Sprintf("combined seed %d ordering %d", seed, ord)
			r, a := solveAudited(t, build(), Params{NodeLimit: 1500, Ordering: ord}, label)
			total.add(a)
			if r.Search.NodeLimitHit {
				limitHits++
			}
			if !r.HasSolution() {
				continue
			}
			// Warm-start from the cold result: exact, then shifted so targets
			// are clamped to StartMax and the repair has to move tasks.
			for _, shift := range []int64{0, 37, 5000} {
				h := &Hint{Starts: append([]int64(nil), r.Starts...)}
				for i := range h.Starts {
					h.Starts[i] += shift * int64(i%3)
				}
				rh, ah := solveAudited(t, build(), Params{NodeLimit: 1500, Ordering: ord, Hint: h},
					fmt.Sprintf("%s hint+%d", label, shift))
				total.add(ah)
				if rh.Search.HintSeeded {
					hintSeeds++
				} else {
					hintFails++
				}
			}
		}
	}

	// Direct models: matchmaking variables, with and without duration
	// tables and a memory dimension; hinted with the cold result's resources.
	for seed := uint64(0); seed < 30; seed++ {
		for _, ord := range allOrderings {
			build := func() *Model {
				inst, _, _ := buildRandomDirectInstance(stats.NewStream(5151, seed), 6, seed%2 == 1)
				return inst.m
			}
			label := fmt.Sprintf("direct seed %d ordering %d", seed, ord)
			r, a := solveAudited(t, build(), Params{NodeLimit: 1200, Ordering: ord}, label)
			total.add(a)
			if r.Search.NodeLimitHit {
				limitHits++
			}
			if !r.HasSolution() {
				continue
			}
			h := &Hint{Starts: r.Starts, Res: r.Res}
			_, ah := solveAudited(t, build(), Params{NodeLimit: 1200, Ordering: ord, Hint: h}, label+" hinted")
			total.add(ah)
		}
	}

	// Frozen tasks.
	for seed := uint64(0); seed < 20; seed++ {
		m, _, _ := buildFrozenInstance(stats.NewStream(6161, seed))
		_, a := solveAudited(t, m, Params{NodeLimit: 500}, fmt.Sprintf("frozen seed %d", seed))
		total.add(a)
	}

	// Garbage hints.
	for name, mk := range garbageHints {
		m, ivs := hintTestModel()
		_, a := solveAudited(t, m, Params{Hint: mk(len(ivs))}, "garbage hint "+name)
		total.add(a)
	}

	t.Logf("%d picks compared: %d with boosted jobs, %d hint-guided, %d resource decisions, %d dead ends, %d after a backtrack; %d solves hit the node limit, %d hints seeded, %d did not",
		total.picks, total.boosted, total.hinted, total.resPicks, total.deadEnds, total.afterBack,
		limitHits, hintSeeds, hintFails)
	for what, n := range map[string]int64{
		"Phase B picks with boosted jobs":   total.boosted,
		"hint-guided picks":                 total.hinted,
		"resource decisions":                total.resPicks,
		"dead ends":                         total.deadEnds,
		"picks after a backtrack":           total.afterBack,
		"solves that ran to the node limit": int64(limitHits),
		"hints that seeded":                 int64(hintSeeds),
	} {
		if n == 0 {
			t.Errorf("the instances exercised no %s", what)
		}
	}
}

// workPerNode solves a combined instance of nJobs jobs, on capacities that
// grow with nJobs so the load stays the same, under a 4000-node limit. It
// returns the keys pick evaluated per node, the keys the scan would have,
// and the solve.
func workPerNode(t *testing.T, nJobs int, slotsPer40Jobs int64) (heap, scan float64, tasks int, r Result) {
	t.Helper()
	k := int64(nJobs) * slotsPer40Jobs / 40
	m := buildRandomInstance(new(Model), stats.NewStream(77, 3), nJobs, 10, 6*k, 4*k, true).m
	r, a := solveAudited(t, m, Params{NodeLimit: 4000}, fmt.Sprintf("%d jobs", nJobs))
	if !r.HasSolution() || r.Search.Nodes == 0 {
		t.Fatalf("%d jobs: no search to measure (%v)", nJobs, r.Status)
	}
	nodes := float64(r.Search.Nodes)
	return float64(r.Search.PickWork) / nodes, float64(a.scanKeys) / nodes, len(m.intervals), r
}

// The work a search node does must not grow with the model: doubling the
// number of jobs (same generator, same load, same node budget) may move
// PickWork/Nodes by at most 1.4x either way, and may grow SweepWork/Nodes —
// the tasks the timetables' sweeps examine — by at most 1.4x. The linear
// scan pick replaced, counted the same way, doubles — which is what shows
// the gate would catch a return to it; a sweep over every task would cost
// each backtrack the whole model, which the overloaded instance bounds.
func TestPerNodeWorkDoesNotScaleWithModel(t *testing.T) {
	sweepPerNode := func(r Result) float64 { return float64(r.Search.SweepWork) / float64(r.Search.Nodes) }
	// growth is b/a for per-node counts, taking anything under one task per
	// node as nothing.
	growth := func(a, b float64) float64 { return max(b, 1) / max(a, 1) }

	h1, s1, n1, r1 := workPerNode(t, 40, 4)
	h2, s2, n2, r2 := workPerNode(t, 80, 4)
	t.Logf("%d tasks: heap %.1f keys/node, scan %.1f, sweeps %.1f tasks/node; %d tasks: heap %.1f, scan %.1f, sweeps %.1f",
		n1, h1, s1, sweepPerNode(r1), n2, h2, s2, sweepPerNode(r2))
	if n2 < n1*18/10 {
		t.Fatalf("generator did not double the model: %d vs %d tasks", n1, n2)
	}
	if ratio := h2 / h1; ratio > 1.4 || ratio < 1/1.4 {
		t.Errorf("PickWork/Nodes moved %.2fx as the model doubled (%.1f -> %.1f), want within 1.4x", ratio, h1, h2)
	}
	if ratio := s2 / s1; ratio < 1.6 {
		t.Errorf("the scan's keys/node moved only %.2fx as the model doubled; the gate above would not catch it", ratio)
	}
	if g := growth(sweepPerNode(r1), sweepPerNode(r2)); g > 1.4 {
		t.Errorf("SweepWork/Nodes grew %.2fx as the model doubled (%.1f -> %.1f), want at most 1.4x", g, sweepPerNode(r1), sweepPerNode(r2))
	}

	// Under overload the search spends its budget backtracking. A backtrack
	// re-keys what its level had changed, not the model, and the full pass
	// after it visits the tasks a blocking segment can reach: a resync over
	// all intervals per backtrack would cost more than half the model per
	// node here, and a full pass over every task nearly twice the 5 % bound
	// below.
	_, _, no, ro := workPerNode(t, 40, 1)
	h, s, n, r := workPerNode(t, 80, 1)
	t.Logf("overloaded, %d tasks, %d backtracks in %d nodes: heap %.1f keys/node, scan %.1f, sweeps %.1f tasks/node (%.1f at %d tasks)",
		n, r.Search.Backtracks, r.Search.Nodes, h, s, sweepPerNode(r), sweepPerNode(ro), no)
	if r.Search.Backtracks < r.Search.Nodes/2 {
		t.Fatalf("instance backtracks only %d times in %d nodes", r.Search.Backtracks, r.Search.Nodes)
	}
	if h > 0.05*float64(n) {
		t.Errorf("PickWork/Nodes = %.1f on a backtracking search, want below 5%% of %d intervals", h, n)
	}
	if w := sweepPerNode(r); w > 0.05*float64(n) {
		t.Errorf("SweepWork/Nodes = %.1f on a backtracking search, want below 5%% of %d intervals", w, n)
	}
	if g := growth(sweepPerNode(ro), sweepPerNode(r)); g > 1.4 {
		t.Errorf("SweepWork/Nodes grew %.2fx as the overloaded model doubled (%.1f -> %.1f), want at most 1.4x", g, sweepPerNode(ro), sweepPerNode(r))
	}

	// The profile is derived from its events once per solve, at the root,
	// whatever the search does after.
	for _, r := range []Result{r1, r2, ro, r} {
		if r.Search.ProfileBuilds != 2 {
			t.Errorf("ProfileBuilds = %d after %d backtracks, want 2 (one per timetable)", r.Search.ProfileBuilds, r.Search.Backtracks)
		}
	}
}
