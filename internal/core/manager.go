package core

import (
	"fmt"
	"time"

	"mrcprm/internal/cp"
	"mrcprm/internal/obs"
	"mrcprm/internal/rmkit"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// Manager is MRCP-RM; it implements sim.ResourceManager. Create one per
// simulation run with New.
type Manager struct {
	cfg Config
	// cluster is the planning view handed to New (see there); true machine
	// speeds come from the simulation's own cluster, ctx.Cluster().
	cluster sim.Cluster

	// jobs owns per-job lifecycle state (retries) in arrival order for
	// deterministic iteration; every round re-derives its work set from the
	// simulator (Context.JobStatus), and what is left of a job, what runs
	// and whether it was abandoned are read from the simulator's record
	// (JobState.Sim).
	jobs     *rmkit.Tracker
	deferred []*workload.Job // Section V.E parking lot

	stats Stats
	// tel receives per-invocation spans and solver search events; nil (the
	// default) disables all instrumentation at the cost of one branch.
	tel *obs.Telemetry
	// onReschedule, when set, fires after every reschedule round whose
	// solve succeeded. Unlike telemetry it works without a sink.
	onReschedule func(now int64, reason string, fallback bool)

	// round is the memory every reschedule runs in (see round).
	round round
}

// New creates an MRCP-RM manager. The cluster argument is the manager's
// PLANNING view: models and admission bounds are built from it, while the
// durations tasks really run for come from the cluster the simulation was
// created with. The two are normally the same value; a speed-blind
// ablation hands New a copy with Speed = nil. cfg.Mode becomes the
// formulation that planning view calls for (see Config.formulation).
func New(cluster sim.Cluster, cfg Config) *Manager {
	cfg.Mode = cfg.formulation(cluster)
	return &Manager{
		cfg:     cfg,
		cluster: cluster,
		jobs:    rmkit.NewTracker(nil),
	}
}

// Name implements sim.ResourceManager.
func (m *Manager) Name() string { return "MRCP-RM" }

// Stats returns the accumulated counters.
func (m *Manager) Stats() Stats { return m.stats }

// SetTelemetry attaches a telemetry core; a nil argument detaches it. Call
// before the simulation starts.
func (m *Manager) SetTelemetry(tel *obs.Telemetry) { m.tel = tel }

// SetRescheduleObserver installs a callback fired after every reschedule
// round whose solve succeeded (reason is the trigger; fallback is always
// false, since a failed solve fails the round). Call before the simulation
// starts; a nil callback detaches.
func (m *Manager) SetRescheduleObserver(fn func(now int64, reason string, fallback bool)) {
	m.onReschedule = fn
}

// OnJobArrival implements sim.ResourceManager: admit or defer. Section V.E
// parks a job whose earliest start time is far in the future until a timer
// releases it; every other arrival triggers a full matchmaking-and-scheduling
// round.
func (m *Manager) OnJobArrival(ctx sim.Context, j *workload.Job) error {
	started := time.Now()
	if until := m.parkedUntil(ctx.Now(), j); until > 0 {
		m.deferred = append(m.deferred, j)
		m.stats.Deferred++
		if m.tel.Enabled() {
			m.tel.Emit(ctx.Now(), obs.LayerManager, "job_deferred",
				obs.Int("job", j.ID), obs.I64("earliest_start_ms", j.EarliestStart))
		}
		ctx.SetTimer(until)
		ctx.AddOverhead(time.Since(started))
		return nil
	}
	m.jobs.Admit(j, ctx.Job(j))
	err := m.reschedule(ctx, "arrival")
	ctx.AddOverhead(time.Since(started))
	return err
}

// parkedUntil is the Section V.E test: the simulated time until which job j
// stays parked (EarliestStart - lead), or 0 when it should be admitted now.
// The release time is static per job, so the timer armed at arrival suffices.
func (m *Manager) parkedUntil(now int64, j *workload.Job) int64 {
	if lead := m.cfg.DeferralLead.Milliseconds(); lead > 0 && j.EarliestStart > now+lead {
		return j.EarliestStart - lead
	}
	return 0
}

// OnTimer implements sim.ResourceManager: it releases deferred jobs whose
// earliest start time is now close.
func (m *Manager) OnTimer(ctx sim.Context) error {
	started := time.Now()
	released := false
	rest := m.deferred[:0]
	for _, j := range m.deferred {
		if m.parkedUntil(ctx.Now(), j) == 0 {
			m.jobs.Admit(j, ctx.Job(j))
			released = true
		} else {
			rest = append(rest, j)
		}
	}
	m.deferred = rest
	var err error
	if released {
		err = m.reschedule(ctx, "timer")
	}
	ctx.AddOverhead(time.Since(started))
	return err
}

// OnTaskComplete implements sim.ResourceManager. MRCP-RM does not re-solve
// on completions (the installed timetable already accounts for them); it
// retires a job with its last task, or an abandoned one (whose draining
// attempts' output is discarded) once nothing of it remains on the cluster.
func (m *Manager) OnTaskComplete(_ sim.Context, t *workload.Task) error {
	js, ok := m.jobs.ByID(t.JobID)
	if !ok {
		return fmt.Errorf("core: completion for unknown task %s", t.ID)
	}
	m.jobs.RetireDrained(js)
	return nil
}

// OnTaskFailed implements sim.FaultHooks: the failed task is schedulable
// again and re-enters the next Table-2 reschedule, unless its job has
// exhausted its retry budget and is abandoned.
func (m *Manager) OnTaskFailed(ctx sim.Context, t *workload.Task, _ int) error {
	started := time.Now()
	js, ok := m.jobs.ByID(t.JobID)
	if !ok {
		return fmt.Errorf("core: failure for unknown task %s", t.ID)
	}
	if err := m.chargeRetry(ctx, js, t); err != nil {
		return err
	}
	err := m.reschedule(ctx, "task_failed")
	ctx.AddOverhead(time.Since(started))
	return err
}

// OnResourceDown implements sim.FaultHooks: killed attempts are charged
// against retry budgets, then one reschedule replans everything away from
// the down resource.
func (m *Manager) OnResourceDown(ctx sim.Context, _ int, killed, _ []*workload.Task) error {
	started := time.Now()
	// Resolve every kill before charging any: when one outage kills two
	// attempts of a job, charging the first can abandon and retire the job,
	// and the second must then count as drained (chargeRetry skips an
	// abandoned job), not as a kill for a job the manager never admitted.
	states := make([]*rmkit.JobState, len(killed))
	for i, t := range killed {
		js, ok := m.jobs.ByID(t.JobID)
		if !ok {
			return fmt.Errorf("core: outage kill for unknown task %s", t.ID)
		}
		states[i] = js
	}
	for i, t := range killed {
		if err := m.chargeRetry(ctx, states[i], t); err != nil {
			return err
		}
	}
	err := m.reschedule(ctx, "resource_down")
	ctx.AddOverhead(time.Since(started))
	return err
}

// OnResourceUp implements sim.FaultHooks: replan to expand back onto the
// repaired resource.
func (m *Manager) OnResourceUp(ctx sim.Context, _ int) error {
	started := time.Now()
	err := m.reschedule(ctx, "resource_up")
	ctx.AddOverhead(time.Since(started))
	return err
}

// OnTaskSlowdown implements sim.FaultHooks: an attempt that will overrun
// its planned window forces a replan with its true duration (the
// reschedule freezes it at its status's Exec) before later starts collide.
// The hook also fires for ordinary slow-machine starts; when the planning
// cluster already budgeted the attempt's machine-scaled duration the plan
// is intact and no replan is needed — only genuinely unplanned overruns
// (stragglers, or any slow-machine start under a speed-blind plan) pay for
// a reschedule.
func (m *Manager) OnTaskSlowdown(ctx sim.Context, t *workload.Task) error {
	started := time.Now()
	if st := ctx.Status(t); st.Placed {
		planned := sim.ScaledExec(t.Exec, m.cluster.SpeedOf(st.Res))
		if st.Exec <= planned {
			ctx.AddOverhead(time.Since(started))
			return nil
		}
	}
	err := m.reschedule(ctx, "slowdown")
	ctx.AddOverhead(time.Since(started))
	return err
}

// chargeRetry books one failed attempt and abandons the job when it
// exhausts the per-task retry cap or the per-job budget.
func (m *Manager) chargeRetry(ctx sim.Context, js *rmkit.JobState, t *workload.Task) error {
	if js.Sim.Abandoned() {
		return nil
	}
	m.stats.TaskRetries++
	if !js.ChargeRetry(m.cfg.Retry, ctx.Attempts(t)) {
		return nil
	}
	if err := ctx.AbandonJob(js.Job); err != nil {
		return err
	}
	m.stats.JobsAbandoned++
	m.jobs.RetireDrained(js)
	return nil
}

// reschedule is the Table 2 algorithm: classify every incomplete task of
// every active job as frozen (started) or schedulable, regenerate the CP
// model, solve, and install the new timetable. A solve that panics or
// yields no solution fails the round, as it fails SolveBatch: nothing is
// installed and the error names the trigger and the simulated time.
func (m *Manager) reschedule(ctx sim.Context, reason string) error {
	now := ctx.Now()
	rd := &m.round
	rd.down = reserve(rd.down, m.cluster.NumResources)[:m.cluster.NumResources]
	down := rd.down
	allDown := true
	for r := range down {
		down[r] = ctx.ResourceDown(r)
		if !down[r] {
			allDown = false
		}
	}
	if allDown {
		// Nothing can be placed anywhere; OnResourceUp replans.
		return nil
	}
	work := m.collectWork(ctx)
	if len(work) == 0 {
		return nil
	}
	var frozenN, pendingN int
	for _, w := range work {
		frozenN += len(w.frozenMaps) + len(w.frozenReds)
		pendingN += len(w.pendingMaps) + len(w.pendingReds)
	}
	telOn := m.tel.Enabled()
	var sp *obs.Span
	var wallStart time.Time
	if telOn {
		wallStart = time.Now()
		sp = m.tel.StartSpan(now, obs.LayerManager, "reschedule",
			obs.Str("reason", reason),
			obs.Str("mode", m.cfg.Mode.String()),
			obs.Int("jobs", len(work)),
			obs.Int("frozen_tasks", frozenN),
			obs.Int("pending_tasks", pendingN))
		m.tel.Observe(obs.HistSolveModelTasks, float64(frozenN+pendingN))
	}

	bm, err := rd.buildModel(m.cfg.Mode, now, m.cluster, work, down)
	if err == nil && len(rd.refs) != len(bm.tasks) {
		err = fmt.Errorf("core: %d task handles for %d model tasks", len(rd.refs), len(bm.tasks))
	}
	if err != nil {
		if telOn {
			sp.End(obs.Str("status", "model_error"),
				obs.Int("objective", -1), obs.Int("predicted_late", -1))
		}
		return err
	}
	var hint *cp.Hint
	if rd.hinted {
		hint = &rd.hint
		m.stats.WarmStartRounds++
		if telOn {
			m.tel.Add(obs.CounterWarmStartHinted, 1)
		}
	}
	res, solveErr := m.solve(bm, hint)
	m.stats.Rounds++
	m.stats.SolverNodes += res.Search.Nodes
	if res.Search.HintSeeded {
		m.stats.WarmStartSeeded++
	}
	if telOn {
		m.emitSolve(now, &res, solveErr, frozenN+pendingN, hint != nil)
		m.tel.Add("manager_rounds", 1)
	}
	if solveErr == nil && !res.HasSolution() {
		solveErr = fmt.Errorf("solve ended with status %v", res.Status)
	}
	if solveErr != nil {
		if telOn {
			sp.End(obs.Str("status", "solve_error"),
				obs.Int("objective", -1), obs.Int("predicted_late", -1))
		}
		return fmt.Errorf("core: %s reschedule at %d ms: %w", reason, now, solveErr)
	}

	err = m.install(ctx, bm, &res, work, down)
	if telOn {
		sp.End(obs.Str("status", res.Status.String()),
			obs.Bool("limit_hit", res.Search.LimitHit()),
			obs.Int("objective", res.Objective),
			obs.Int("predicted_late", predictedLateAfter(ctx, work, err)))
		m.tel.Observe(obs.HistWallReschedule, float64(time.Since(wallStart).Nanoseconds())/1e6)
	}
	if m.onReschedule != nil {
		m.onReschedule(now, reason, false)
	}
	return err
}

// emitSolve streams one solve's search statistics: the full
// objective-improvement timeline, then the summary event.
func (m *Manager) emitSolve(now int64, res *cp.Result, solveErr error, modelTasks int, hinted bool) {
	for _, stp := range res.Search.Timeline {
		m.tel.Emit(now, obs.LayerSolver, "objective",
			obs.Int("round", stp.Round),
			obs.I64("nodes", stp.Nodes),
			obs.Int("objective", stp.Objective),
			obs.Wall("offset", stp.Wall))
	}
	st := &res.Search
	status := res.Status.String()
	if solveErr != nil {
		status = "panic"
	}
	m.tel.Emit(now, obs.LayerSolver, "solve",
		obs.Str("status", status),
		obs.Int("objective", res.Objective),
		obs.I64("nodes", st.Nodes),
		obs.I64("backtracks", st.Backtracks),
		obs.I64("propagations", st.Propagations),
		obs.I64("pick_work", st.PickWork),
		obs.I64("profile_builds", st.ProfileBuilds),
		obs.I64("sweep_work", st.SweepWork),
		obs.Int("rounds", st.Rounds),
		obs.Int("improve_passes", st.ImprovePasses),
		obs.Int("improve_accepts", st.ImproveAccepts),
		obs.Int("solutions", st.Solutions),
		obs.Int("first_objective", st.FirstObjective),
		obs.Bool("node_limit_hit", st.NodeLimitHit),
		obs.Bool("time_limit_hit", st.TimeLimitHit),
		obs.Int("model_tasks", modelTasks),
		obs.Bool("warmstart", hinted),
		obs.Bool("hint_seeded", st.HintSeeded),
		obs.Int("hint_objective", st.HintObjective),
		obs.Wall("solve", res.SolveTime),
		obs.Wall("first_solution", st.TimeToFirst))
	m.tel.Add("solver_solves", 1)
	m.tel.Add("solver_nodes", st.Nodes)
	if st.HintSeeded {
		m.tel.Add(obs.CounterWarmStartSeeded, 1)
	}
	m.tel.Observe(obs.HistWallSolve, float64(res.SolveTime.Nanoseconds())/1e6)
}

// predictedLateAfter counts non-ghost jobs whose just-installed timetable
// completes after their deadline, by querying the placements the install
// pass wrote into the simulation. Returns -1 when the install failed.
func predictedLateAfter(ctx sim.Context, work []*jobWork, installErr error) int {
	if installErr != nil {
		return -1
	}
	n := 0
	for _, w := range work {
		if w.ghost {
			continue
		}
		var end int64
		for _, f := range w.frozenMaps {
			if e := f.start + f.exec; e > end {
				end = e
			}
		}
		for _, f := range w.frozenReds {
			if e := f.start + f.exec; e > end {
				end = e
			}
		}
		cluster := ctx.Cluster()
		pend := func(ts []*workload.Task) {
			for _, t := range ts {
				if st := ctx.Status(t); st.Placed {
					// True machine-scaled duration, so the prediction
					// reflects what will actually happen — including the
					// overruns a speed-blind plan is about to suffer.
					if e := st.Start + sim.ScaledExec(t.Exec, cluster.SpeedOf(st.Res)); e > end {
						end = e
					}
				}
			}
		}
		pend(w.pendingMaps)
		pend(w.pendingReds)
		if end > w.job.Deadline {
			n++
		}
	}
	return n
}

// solve runs the CP search, converting a solver panic into an error.
func (m *Manager) solve(bm *builtModel, hint *cp.Hint) (res cp.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: CP solver panicked: %v", r)
		}
	}()
	solver := cp.NewSolver(bm.model, cp.Params{
		TimeLimit: m.cfg.SolveTimeLimit,
		NodeLimit: m.cfg.NodeLimit,
		Ordering:  m.cfg.Ordering,
		Hint:      hint,
	})
	return solver.Solve(), nil
}

// collectWork snapshots the incomplete tasks of all active jobs into the
// round's jobWork structs, reading each job's task states at once
// (Context.JobStatus). Abandoned jobs contribute only their still-draining
// attempts (as capacity-holding ghosts); ones with nothing left on the
// cluster are retired here.
//
// Alongside it lays out, by model index — the order buildModel adds a
// job's tasks in: pending maps, frozen maps, pending reduces, frozen
// reduces — each pending task's handle for install (rd.refs, zero for a
// frozen task) and, under WarmStart, the hint: the placement the last
// round installed, -1 where there is none. rd.hinted says some task has
// one.
func (m *Manager) collectWork(ctx sim.Context) []*jobWork {
	var gone []*rmkit.JobState
	for _, js := range m.jobs.Active() {
		if js.Drained() {
			gone = append(gone, js)
		}
	}
	for _, js := range gone {
		m.jobs.Retire(js)
	}

	rd := &m.round
	warm := m.cfg.WarmStart
	rd.refs, rd.hinted = rd.refs[:0], false
	h := &rd.hint
	h.Starts, h.Res = h.Starts[:0], h.Res[:0]
	n := 0
	for _, js := range m.jobs.Active() {
		if n == len(rd.jobs) {
			rd.jobs = append(rd.jobs, new(jobWork))
		}
		j, ghost := js.Job, js.Sim.Abandoned()
		w := rd.jobs[n]
		*w = jobWork{job: j, ghost: ghost,
			pendingMaps: w.pendingMaps[:0], pendingReds: w.pendingReds[:0],
			frozenMaps: w.frozenMaps[:0], frozenReds: w.frozenReds[:0]}
		rd.status = ctx.JobStatus(j, rd.status[:0])
		nm := len(j.MapTasks)
		for phase, part := range [2][]sim.TaskStatus{rd.status[:nm], rd.status[nm:]} {
			pending, frozen := &w.pendingMaps, &w.frozenMaps
			if phase == 1 {
				pending, frozen = &w.pendingReds, &w.frozenReds
			}
			for _, st := range part {
				switch {
				case st.Completed:
					// finished: constrains nothing, new work starts at or after now
				case st.Started:
					*frozen = append(*frozen, frozenTask{task: st.Task, res: st.Res, start: st.Start, exec: st.Exec})
				case ghost:
					// dead work: never scheduled again
				default:
					*pending = append(*pending, st.Task)
					rd.refs = append(rd.refs, st.Ref)
					if warm && st.Placed {
						h.Starts, h.Res = append(h.Starts, st.Start), append(h.Res, st.Res)
						rd.hinted = true
					} else if warm {
						h.Starts, h.Res = append(h.Starts, -1), append(h.Res, -1)
					}
				}
			}
			for range *frozen {
				rd.refs = append(rd.refs, sim.TaskRef{})
				if warm {
					h.Starts, h.Res = append(h.Starts, -1), append(h.Res, -1)
				}
			}
		}
		if len(w.pendingMaps)+len(w.pendingReds)+len(w.frozenMaps)+len(w.frozenReds) > 0 {
			n++
		}
	}
	return rd.jobs[:n]
}

// install writes the solved timetable into the simulator: combined-mode
// rounds run the Section V.D matchmaking around the running tasks,
// direct-mode rounds take resources straight off the solution (see
// placements). Each task is placed through the handle collectWork read.
func (m *Manager) install(ctx sim.Context, bm *builtModel, res *cp.Result, work []*jobWork, down []bool) error {
	var mk *matchmaker
	if bm.mode == ModeCombined {
		mk = &m.round.mk
		if err := mk.pinRound(m.cluster, work, down); err != nil {
			return err
		}
	}
	placed, err := bm.placements(res, mk)
	if err != nil {
		return err
	}
	for _, a := range placed {
		if err := ctx.Place(m.round.refs[a.id], a.res, a.start); err != nil {
			return err
		}
	}
	return nil
}
