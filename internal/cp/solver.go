package cp

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Params configures a solve.
type Params struct {
	// TimeLimit bounds wall-clock solve time; zero means no time limit.
	TimeLimit time.Duration
	// NodeLimit bounds the number of search nodes; zero means the default
	// of 200000.
	NodeLimit int64
	// Hint warm-starts the solve from a prior assignment (see Hint). Nil
	// (the default) leaves every search path bit-identical to a
	// hint-unaware solver. A hint that does not cover the model's
	// intervals is ignored.
	Hint *Hint
}

// Status reports how a solve ended.
type Status int

const (
	// StatusOptimal: a solution with zero late jobs was found, or the
	// branch-and-bound proved no better solution exists within the
	// set-times search space.
	StatusOptimal Status = iota
	// StatusFeasible: a solution was found but a limit stopped the
	// improvement loop.
	StatusFeasible
	// StatusInfeasible: the search space contains no solution (for models
	// with the lateness objective this cannot normally happen, since being
	// late is always allowed unless a SumLE bound forbids it).
	StatusInfeasible
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is the outcome of a solve.
type Result struct {
	Status    Status
	Objective int
	// Starts[i] is the assigned start of interval with ID i.
	Starts []int64
	// Res[i] is the assigned resource of interval i, or -1 when the
	// interval has no matchmaking variable.
	Res []int
	// Lates[j] is the value of bool j (by Bool ID).
	Lates []bool
	// SolveTime is the wall-clock duration of the solve.
	SolveTime time.Duration
	// Search carries the search statistics of this solve (nodes, rounds,
	// ...).
	Search SearchStats
}

// HasSolution reports whether the result carries an assignment.
func (r *Result) HasSolution() bool {
	return r.Status == StatusOptimal || r.Status == StatusFeasible
}

// ObjectiveStep is one improvement of the incumbent: after Nodes search
// nodes, in round Round, a solution with the given Objective was accepted
// Wall after the solve began. Wall is the only wall-clock-derived field.
type ObjectiveStep struct {
	Round     int
	Nodes     int64
	Objective int
	Wall      time.Duration
}

// SearchStats are the per-solve search counters. All fields except the
// durations (and the Wall component of Timeline entries) are deterministic
// functions of the model and parameters when no wall-clock time limit is
// set.
type SearchStats struct {
	// Nodes counts search nodes expanded; Backtracks counts decision
	// undo operations after a failed subtree; Propagations counts
	// propagator executions.
	Nodes        int64
	Backtracks   int64
	Propagations int64
	// PickWork counts the interval keys the branching rule evaluated to
	// choose its decisions: one per interval each time a descent starts, one
	// per interval that changed since the previous node otherwise, and one
	// per candidate whose key rose and which reached the top of the ready
	// set before changing again (see candHeap).
	// ProfileBuilds counts timetable profiles derived from their event
	// lists: one per cumulative per solve. SweepWork counts the tasks the
	// timetables' sweeps examined, in the post-pop full pass and in the
	// saturated-region pass alike. Per node, these measure how much of the
	// model a search node touches.
	PickWork      int64
	ProfileBuilds int64
	SweepWork     int64
	// Rounds counts search descents: the first greedy descent, each
	// squeaky-wheel improvement pass, and each branch-and-bound round.
	Rounds int
	// ImprovePasses counts Phase B squeaky-wheel re-descents attempted;
	// ImproveAccepts counts those that improved the incumbent.
	ImprovePasses  int
	ImproveAccepts int
	// Solutions counts accepted incumbents (equals len(Timeline)).
	Solutions int
	// FirstObjective is the objective of the first solution (-1 when the
	// search found none); TimeToFirst is the wall-clock time it took.
	FirstObjective int
	TimeToFirst    time.Duration
	// NodeLimitHit / TimeLimitHit report which budget stopped the search.
	NodeLimitHit bool
	TimeLimitHit bool
	// Timeline is the full objective-improvement history.
	Timeline []ObjectiveStep
	// HintSeeded reports that a warm-start hint descent produced the first
	// incumbent; HintObjective is that incumbent's objective, -1 when no
	// hint seeded.
	HintSeeded    bool
	HintObjective int
}

// LimitHit reports whether any search budget fired.
func (st *SearchStats) LimitHit() bool { return st.NodeLimitHit || st.TimeLimitHit }

func (st *SearchStats) String() string {
	limits := "none"
	switch {
	case st.NodeLimitHit && st.TimeLimitHit:
		limits = "node+time"
	case st.NodeLimitHit:
		limits = "node"
	case st.TimeLimitHit:
		limits = "time"
	}
	first := "-"
	if st.FirstObjective >= 0 {
		first = fmt.Sprintf("%d @%.1fms", st.FirstObjective,
			float64(st.TimeToFirst.Nanoseconds())/1e6)
	}
	return fmt.Sprintf(
		"%d nodes, %d backtracks, %d propagations, %d rounds, improve %d/%d, %d solutions (first %s), limit %s, pick work %d, profile builds %d, sweep work %d",
		st.Nodes, st.Backtracks, st.Propagations, st.Rounds,
		st.ImproveAccepts, st.ImprovePasses, st.Solutions, first, limits,
		st.PickWork, st.ProfileBuilds, st.SweepWork)
}

// String summarizes the result's status, objective, and search statistics
// in one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s obj=%d in %v: %s",
		r.Status, r.Objective, r.SolveTime.Round(10*time.Microsecond), r.Search.String())
}

// Minimize declares the objective min Σ bools; the solver runs
// branch-and-bound over it.
func (m *Model) Minimize(bools []*Bool) {
	m.objBools = bools
}

// Solver runs the set-times branch-and-bound search over a model, once. Its
// search state — the propagation engine's buffers and the candidate heap —
// lives in the model, so a model recycled by Reset lends the next solve the
// memory the last one grew. One model serves one solve at a time.
type Solver struct {
	m      *Model
	e      *engine
	params Params

	// cand is the ready set pick reads its decision from. It follows the
	// store through the engine's touched list; candStale asks for a rebuild
	// over the whole model, which the start of a descent needs because the
	// hint and the boost set change the keys without touching the store.
	cand      *candHeap
	candStale bool
	pickWork  int64
	// onPick, when set (tests only), sees every decision pick returns.
	onPick func(decision, pickStatus)

	deadline  time.Time
	hasDL     bool
	nodeLimit int64
	nodes     int64
	limitHit  bool

	// Search statistics beyond the node count.
	started        time.Time
	curRound       int
	backtracks     int64
	improvePasses  int
	improveAccepts int
	timeline       []ObjectiveStep
	nodeLimitHit   bool
	timeLimitHit   bool
	// ignoreLimits lets one guaranteed improvement descent run even after
	// the limits fired; descents without a branch-and-bound cut are
	// backtrack-free, so this stays bounded.
	ignoreLimits bool

	// hintActive marks the warm-start repair descent: pick targets, the
	// placement lower bound, and the resource choice then follow
	// params.Hint. hintSeeded records that the repair produced the first
	// incumbent, with hintObjective its objective.
	hintActive    bool
	hintSeeded    bool
	hintObjective int

	// boost holds, in ascending order, the JobKeys of the jobs whose tasks
	// are scheduled ahead of others at equal earliest starts — the "squeaky
	// wheel" improvement loop re-descends with the incumbent's late jobs
	// boosted.
	boost []int

	incumbent *Result
}

// NewSolver prepares a solver for the model.
func NewSolver(m *Model, params Params) *Solver {
	if params.NodeLimit == 0 {
		params.NodeLimit = 200000
	}
	return &Solver{m: m, params: params, nodeLimit: params.NodeLimit, hintObjective: -1}
}

// hasKey reports whether the ascending key set holds k.
func hasKey(set []int, k int) bool {
	_, found := slices.BinarySearch(set, k)
	return found
}

// addKey inserts k into the ascending key set.
func addKey(set []int, k int) []int {
	if i, found := slices.BinarySearch(set, k); !found {
		set = slices.Insert(set, i, k)
	}
	return set
}

// Solve runs the search and returns the best solution found.
func (s *Solver) Solve() Result {
	start := time.Now()
	s.started = start
	if s.params.TimeLimit > 0 {
		s.deadline = start.Add(s.params.TimeLimit)
		s.hasDL = true
	}
	m := s.m
	if len(m.objBools) > 0 && m.sumLE == nil {
		m.addSumLE(m.objBools, len(m.objBools))
	}
	cut := m.sumLE
	s.e = newEngine(m)
	s.cand = &m.cand
	s.cand.size(len(m.intervals))
	s.e.scheduleAll()
	if s.e.propagate() != nil {
		return Result{Status: StatusInfeasible, SolveTime: time.Since(start),
			Search: s.searchStats(0, start)}
	}
	// Jobs already proven late at the root cannot be rescued; boosting
	// them would only let their tasks crowd out salvageable jobs.
	var rootForced []int
	for _, b := range m.objBools {
		if m.BoolMin(b) == 1 {
			rootForced = addKey(rootForced, b.jobKey)
		}
	}

	// Phase A: first descent — a greedy, backtrack-free schedule. With a
	// warm-start hint the descent instead repairs the hinted assignment
	// (see Hint); when that fails (e.g. a hint a root cut rejects) or
	// spends the node budget, the canonical cold descent runs as if no hint
	// was given.
	rounds := 1
	s.curRound = rounds
	// Limits do not apply to the cold descent before a first incumbent (see
	// checkLimit), so one that finds nothing has exhausted the search space.
	var found bool
	if s.params.Hint.covers(len(m.intervals)) {
		s.hintActive = true
		found, _ = s.descend()
		s.hintActive = false
		if found {
			s.hintSeeded = true
			s.hintObjective = s.incumbent.Objective
		} else {
			rounds++
			s.curRound = rounds
			found, _ = s.descend()
		}
	} else {
		found, _ = s.descend()
	}
	if !found {
		return Result{Status: StatusInfeasible, SolveTime: time.Since(start), Search: s.searchStats(rounds, start)}
	}
	if s.incumbent.Objective == 0 || len(m.objBools) == 0 || cut == nil {
		return s.finish(StatusOptimal, rounds, start)
	}
	if s.hintSeeded {
		// Incremental contract: a hint-seeded solve is pure repair — one
		// descent that re-validates the prior timetable around the delta.
		// The incumbent already embodies a prior cold round's improvement
		// and proof work; every extra pass here is a full O(n) descent
		// over a model sized by the backlog, which is exactly the cost
		// incremental solving exists to avoid. Improvement (Phase B) and
		// the optimality proof (Phase C) stay with the interleaved cold
		// solves.
		return s.finish(StatusFeasible, rounds, start)
	}

	// Phase B: squeaky-wheel improvement — re-descend with the incumbent's
	// late jobs boosted to the front of the ordering. Each pass is one
	// cheap greedy descent, which makes this effective even on models far
	// too large for exact search.
	noImprove := 0
	for pass := 0; noImprove < 2 && s.incumbent.Objective > 0; pass++ {
		if pass == 0 {
			// The first squeaky pass always runs in full, like the first
			// descent: on models so large that Phase A alone consumes the
			// time budget, one improvement attempt is still worth its cost.
			s.ignoreLimits = true
		} else if s.checkLimit() {
			break
		}
		rounds++
		s.curRound = rounds
		s.improvePasses++
		prev := s.incumbent.Objective
		for _, b := range m.objBools {
			if s.incumbent.Lates[b.id] && !hasKey(rootForced, b.jobKey) {
				s.boost = addKey(s.boost, b.jobKey)
			}
		}
		found, _ := s.descend()
		s.ignoreLimits = false
		if !found || s.incumbent.Objective >= prev {
			noImprove++
		} else {
			s.improveAccepts++
			noImprove = 0
		}
	}
	s.boost = nil
	if s.incumbent.Objective == 0 {
		return s.finish(StatusOptimal, rounds, start)
	}
	// Phase C: branch and bound on Σ N_j, exact within the set-times
	// search space, bounded by the node and time limits.
	for {
		rounds++
		s.curRound = rounds
		cut.bound = s.incumbent.Objective - 1
		s.e.scheduleAll()
		if s.e.propagate() != nil {
			return s.finish(StatusOptimal, rounds, start)
		}
		found, exhausted := s.descend()
		if found {
			if s.incumbent.Objective == 0 {
				return s.finish(StatusOptimal, rounds, start)
			}
			continue
		}
		if exhausted {
			// The whole subtree under the bound was explored: no solution
			// with a smaller objective exists.
			return s.finish(StatusOptimal, rounds, start)
		}
		return s.finish(StatusFeasible, rounds, start)
	}
}

func (s *Solver) finish(st Status, rounds int, start time.Time) Result {
	r := *s.incumbent
	r.Status = st
	r.SolveTime = time.Since(start)
	r.Search = s.searchStats(rounds, start)
	return r
}

// searchStats snapshots the detailed counters of the search so far.
func (s *Solver) searchStats(rounds int, start time.Time) SearchStats {
	st := SearchStats{
		Nodes:          s.nodes,
		Backtracks:     s.backtracks,
		Rounds:         rounds,
		ImprovePasses:  s.improvePasses,
		ImproveAccepts: s.improveAccepts,
		Solutions:      len(s.timeline),
		FirstObjective: -1,
		NodeLimitHit:   s.nodeLimitHit,
		TimeLimitHit:   s.timeLimitHit,
		Timeline:       s.timeline,
		HintSeeded:     s.hintSeeded,
		HintObjective:  s.hintObjective,
	}
	if s.e != nil {
		st.Propagations = s.e.propagations
		st.PickWork = s.pickWork
		for _, c := range s.m.cumuls {
			st.ProfileBuilds += c.builds
			st.SweepWork += c.sweepWork
		}
	}
	if len(s.timeline) > 0 {
		st.FirstObjective = s.timeline[0].Objective
		st.TimeToFirst = s.timeline[0].Wall
	}
	return st
}

// checkLimit reports whether search must stop now. Limits apply only to the
// improvement phase: until a first incumbent exists the search runs to its
// first solution (the set-times first descent is backtrack-free on these
// models, so this terminates after one decision per task), mirroring a CP
// engine that always emits at least its greedy solution under a time limit.
// A hint repair descent can backtrack, so it alone is held to the node
// budget; when it spends it, the cold descent runs instead.
func (s *Solver) checkLimit() bool {
	if s.incumbent == nil {
		return s.hintActive && s.nodes >= s.nodeLimit
	}
	if s.ignoreLimits {
		return false
	}
	if s.limitHit {
		return true
	}
	if s.nodes >= s.nodeLimit {
		s.limitHit = true
		s.nodeLimitHit = true
		return true
	}
	if s.hasDL && s.nodes%256 == 0 && time.Now().After(s.deadline) {
		s.limitHit = true
		s.timeLimitHit = true
		return true
	}
	return false
}

type pickStatus int

const (
	pickFound pickStatus = iota
	pickAllDone
	pickDeadEnd
)

type decision struct {
	iv  *Interval
	res int // >= 0: resource decision; -1: time decision
}

// pick selects the next decision following the set-times rule: among
// non-postponed undecided tasks, take the one with the smallest earliest
// start, breaking ties by boost, then by job deadline (EDF). It reads that
// task off the candidate heap after telling the heap what changed: entry by
// entry from the engine's touched list — which covers what propagation
// changed on the way down and what a backtrack changed back — or, at the
// start of a descent, with one pass over the model. The heap acts on a
// lowered key at once and on the rest when the entry reaches its top.
func (s *Solver) pick() (decision, pickStatus) {
	m := s.m
	if s.candStale {
		s.candStale = false
		s.cand.reset()
		for _, iv := range m.intervals {
			s.rekey(iv)
		}
	} else {
		for _, id := range s.e.touched {
			s.rekey(m.intervals[id])
		}
	}
	s.e.clearTouched()
	id := s.cand.top(s.raisedKey)
	if id < 0 {
		if s.cand.undecided > 0 {
			return decision{}, pickDeadEnd
		}
		return decision{}, pickAllDone
	}
	best := m.intervals[id]
	if best.resVar != nil && m.ResFixedValue(best.resVar) < 0 {
		if s.hintActive {
			if r := s.params.Hint.res(best.id); r >= 0 && m.ResAllowed(best.resVar, r) {
				return decision{iv: best, res: r}, pickFound
			}
		}
		return decision{iv: best, res: s.pickResource(best)}, pickFound
	}
	return decision{iv: best, res: -1}, pickFound
}

// rekey re-evaluates iv's place in the ready set from the store.
func (s *Solver) rekey(iv *Interval) {
	s.pickWork++
	m := s.m
	id := int32(iv.id)
	needRes := iv.resVar != nil && m.ResFixedValue(iv.resVar) < 0
	switch {
	case !needRes && m.Fixed(iv):
		s.cand.setState(id, candDecided)
	case m.postponed(iv):
		s.cand.setState(id, candPostponed)
	default:
		s.cand.put(id, s.currentKey(id))
	}
}

// raisedKey is the key of a raised entry that reached the top of the ready
// set, evaluated anew: pick work like a rekey.
func (s *Solver) raisedKey(id int32) candKey {
	s.pickWork++
	return s.currentKey(id)
}

// currentKey evaluates candidate id's key from the store. The final
// tie-break is creation order (the id, see candEntry.less), NOT a
// duration-derived quantity: breaking ties by startMax would start a job's
// longest tasks first (smaller startMax), leaving every slot busy with long
// work at random arrival instants and killing the system's responsiveness
// to tight new jobs.
func (s *Solver) currentKey(id int32) candKey {
	iv := s.m.intervals[id]
	k := candKey{target: s.targetStart(iv), boosted: 1, due: iv.Due}
	if hasKey(s.boost, iv.JobKey) {
		k.boosted = 0
	}
	return k
}

// targetStart is the earliest start the descent aims at for iv: its
// current StartMin or, during a warm-start repair descent, the hinted
// start clamped into the interval's current bounds — so surviving tasks
// stay where the previous round put them while remaining feasible.
func (s *Solver) targetStart(iv *Interval) int64 {
	m := s.m
	st := m.StartMin(iv)
	if s.hintActive {
		if h := s.params.Hint.start(iv.id); h > st {
			if mx := m.StartMax(iv); h > mx {
				h = mx
			}
			if h > st {
				st = h
			}
		}
	}
	return st
}

// pickResource chooses the domain value where the task can COMPLETE
// earliest on the current timetables (earliest fit plus the task's
// duration on that resource), preferring lower indices on ties. On uniform
// models the duration term is constant, so the choice reduces to the
// classic earliest-start rule bit for bit; on heterogeneous models it is
// what makes the descent speed-aware — a later slot on a fast machine
// beats an earlier slot on a slow one when it finishes sooner.
func (s *Solver) pickResource(iv *Interval) int {
	m := s.m
	target := s.targetStart(iv)
	// resBuf and fitBuf are the model's scratch for the domain and for
	// fits[r], the earliest fit on resource r over the timetables visited so
	// far; MaxInt64 rules r out (not in the domain, or overloaded).
	m.resBuf = m.AppendResDomain(iv.resVar, m.resBuf[:0])
	m.fitBuf = resized(m.fitBuf, iv.resVar.NumRes)
	fits := m.fitBuf
	for r := range fits {
		fits[r] = math.MaxInt64
	}
	for _, r := range m.resBuf {
		fits[r] = target
	}
	// Every timetable of a candidate resource is consulted, in posting
	// order. Those iv sits on are the members of the families its watch
	// list names, and the family entry gives iv's position on each. A
	// timetable that does not list iv still counts with iv's own demand
	// when demands are uniform (a map task is steered away from a resource
	// whose reduce slots are full), and not at all when they are per task:
	// no entry means no demand on that dimension.
	m.famPos = resized(m.famPos, len(m.families))
	famPos := m.famPos
	for i := range famPos {
		famPos[i] = -1
	}
	for _, w := range m.ivWatch[iv.id] {
		if w.prop < 0 && famPos[^w.prop] < 0 {
			famPos[^w.prop] = w.pos
		}
	}
	for _, c := range m.cumuls {
		r := c.resIndex
		if r < 0 || r >= len(fits) || fits[r] == math.MaxInt64 {
			continue
		}
		dem := iv.Demand
		if c.fam != nil && famPos[c.fam.id] >= 0 {
			dem = c.demandAt(int(famPos[c.fam.id]))
		} else if c.demands != nil {
			continue
		}
		if err := c.refresh(m); err != nil {
			fits[r] = math.MaxInt64
			continue
		}
		if f := c.earliestFit(m, iv, dem, fits[r], false); f > fits[r] {
			fits[r] = f
		}
	}
	// resBuf is in ascending order, so the strict comparison is the
	// lower-index tie-break.
	bestRes := -1
	bestComp := int64(math.MaxInt64)
	for _, r := range m.resBuf {
		comp := int64(math.MaxInt64)
		if dur := iv.DurOn(r); fits[r] < math.MaxInt64-dur {
			comp = fits[r] + dur
		}
		if comp < bestComp {
			bestComp, bestRes = comp, r
		}
	}
	if bestRes < 0 {
		bestRes = m.resBuf[0]
	}
	return bestRes
}

// descend runs one search descent from the root state and returns the store
// to it; see dfs for the result.
func (s *Solver) descend() (bool, bool) {
	s.candStale = true
	found, exhausted := s.dfs()
	s.e.popAll()
	return found, exhausted
}

// dfs explores the subtree below the current store state. It returns
// (true, _) as soon as a solution satisfying the current bound is found
// (captured into s.incumbent), or (false, exhausted) otherwise, where
// exhausted means the subtree was fully explored rather than cut by a
// limit.
func (s *Solver) dfs() (bool, bool) {
	if s.checkLimit() {
		return false, false
	}
	dec, st := s.pick()
	if s.onPick != nil {
		s.onPick(dec, st)
	}
	switch st {
	case pickAllDone:
		s.capture()
		return true, true
	case pickDeadEnd:
		return false, true
	}
	s.nodes++

	// Left branch.
	s.e.store.Push()
	if s.applyLeft(dec) == nil && s.e.propagate() == nil {
		if found, _ := s.dfs(); found {
			return true, true
		}
	}
	s.backtracks++
	s.e.pop()
	if s.limitHit {
		return false, false
	}

	// Right branch.
	s.e.store.Push()
	if s.applyRight(dec) == nil && s.e.propagate() == nil {
		if found, _ := s.dfs(); found {
			return true, true
		}
	}
	s.backtracks++
	s.e.pop()
	return false, !s.limitHit
}

func (s *Solver) applyLeft(d decision) error {
	if d.res >= 0 {
		return s.e.fixRes(d.iv.resVar, d.res)
	}
	return s.e.fixStart(d.iv, s.placementStart(d.iv))
}

// placementStart computes the task's true earliest feasible start on the
// current timetables. StartMin is a valid but possibly stale lower bound
// (the incremental cumulative passes skip min-side tightening); placing at
// the computed fit keeps the set-times descent equivalent to eager
// filtering at a fraction of the cost. The result is validated by the
// overload check after fixing, so an optimistic value can only cause a
// backtrack, never an invalid solution.
func (s *Solver) placementStart(iv *Interval) int64 {
	m := s.m
	st := s.targetStart(iv)
	// A task can sit on several timetables of its resource: in direct mode
	// with memory, on the resource's slot timetable and on its memory
	// timetable, and a fit on one may land where the other is full. A
	// second round re-fits on every timetable from the start the first
	// round reached. That need not be a fixpoint; a start that still
	// collides fails the overload check after fixing. Whether a second
	// round runs depends on every timetable the task sits on, each member
	// of its families included, not only on those it runs on.
	on, cums := m.timetablesOn(iv, m.onBuf[:0])
	m.onBuf = on
	for range [2]struct{}{} {
		for _, t := range on {
			if err := t.c.refresh(m); err != nil {
				return st
			}
			st = t.c.earliestFit(m, iv, t.c.demandAt(t.pos), st, true)
		}
		if cums < 2 {
			break
		}
	}
	return st
}

func (s *Solver) applyRight(d decision) error {
	if d.res >= 0 {
		return s.e.removeRes(d.iv.resVar, d.res)
	}
	s.e.postpone(d.iv)
	return nil
}

// capture snapshots the current (fully decided) state as the incumbent if
// it improves on (or first establishes) the best objective. The objective
// is read off the store first, so a descent that does not improve builds
// no Result.
func (s *Solver) capture() {
	m := s.m
	obj := 0
	for _, b := range m.objBools {
		if m.BoolMin(b) == 1 {
			obj++
		}
	}
	if s.incumbent != nil && obj >= s.incumbent.Objective {
		return
	}
	r := &Result{
		Starts:    make([]int64, len(m.intervals)),
		Res:       make([]int, len(m.intervals)),
		Lates:     make([]bool, len(m.bools)),
		Objective: obj,
	}
	for i, iv := range m.intervals {
		r.Starts[i] = m.StartMin(iv)
		r.Res[i] = -1
		if iv.resVar != nil {
			r.Res[i] = m.ResFixedValue(iv.resVar)
		}
	}
	for i, b := range m.bools {
		r.Lates[i] = m.BoolMin(b) == 1
	}
	s.incumbent = r
	s.timeline = append(s.timeline, ObjectiveStep{
		Round:     s.curRound,
		Nodes:     s.nodes,
		Objective: obj,
		Wall:      time.Since(s.started),
	})
}
