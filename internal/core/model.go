package core

import (
	"fmt"

	"mrcprm/internal/cp"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// builtModel couples a cp.Model with the bookkeeping needed to read the
// solution back out (see placements).
type builtModel struct {
	model *cp.Model
	// mode is the formulation the model was built in; the read-back
	// follows it.
	mode SolveMode
	// tasks lists every modeled task in interval order: tasks[i].iv.ID() == i.
	tasks []modelTask
	// placed is placements' output buffer.
	placed []assignment
}

// modelTask is one incomplete task of the model.
type modelTask struct {
	task *workload.Task
	job  *workload.Job
	iv   *cp.Interval
	// frozen marks a task that has started executing: its start (and, in
	// direct mode, resource) is pinned and it is not re-installed.
	frozen bool
}

// jobWork is the schedulable remainder of one job.
type jobWork struct {
	job *workload.Job
	// pendingMaps/pendingReds are not started; frozenMaps/frozenReds have
	// started but not completed (with their current placement).
	pendingMaps []*workload.Task
	pendingReds []*workload.Task
	frozenMaps  []frozenTask
	frozenReds  []frozenTask
	// ghost marks an abandoned job: its running tasks still hold capacity
	// (and must stay in the model so nothing is placed on top of them), but
	// it has no pending work and no lateness indicator.
	ghost bool
}

type frozenTask struct {
	task  *workload.Task
	res   int
	start int64
	// exec is the attempt's effective execution time (straggler slowdowns
	// make it exceed task.Exec).
	exec int64
}

// round is the memory a reschedule collects its work, builds its model and
// installs the solution in. A Manager keeps one for its lifetime and a
// batch solve makes its own, so every model is built the same way: each
// round resets what the last one grew and refills it, and the memory
// follows the largest round seen.
type round struct {
	model cp.Model
	bm    builtModel
	down  []bool
	// jobs holds the jobWork structs of earlier rounds, reused by index.
	jobs []*jobWork
	// The cumulatives' member lists, and every job's interval lists that
	// its constraints hold (maps, reduces, precedence predecessors,
	// terminals), cut from ivs.
	mapTasks, redTasks, memTasks []*cp.Interval
	memDem                       []int64
	ivs                          []*cp.Interval
	lates                        []*cp.Bool
	durBuf                       []int64
	// names are the direct model's cumulative names, per pool and resource.
	names [3][]string
	// index and hasSucc serve the precedence constraints of one workflow.
	index   map[*workload.Task]int
	hasSucc []bool
	mk      matchmaker
	hint    cp.Hint
}

// reserve returns s emptied, with room for n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// cumulNames returns the direct model's per-resource cumulative names for
// the map, reduce and memory timetables, formatted once per round value.
func (rd *round) cumulNames(numRes int) *[3][]string {
	if len(rd.names[0]) != numRes {
		for k, prefix := range [3]string{"map_r", "red_r", "mem_r"} {
			rd.names[k] = make([]string, numRes)
			for r := range rd.names[k] {
				rd.names[k][r] = fmt.Sprintf("%s%d", prefix, r)
			}
		}
	}
	return &rd.names
}

// buildModel constructs the Table 1 CP formulation over the given work in
// the given formulation (see Config.formulation), into the round's model.
// now is the invocation time; cluster describes the system component; down
// flags resources currently in an outage, which must receive no new work
// (nil means all up).
func (rd *round) buildModel(mode SolveMode, now int64, cluster sim.Cluster, work []*jobWork, down []bool) (*builtModel, error) {
	hetero := cluster.Heterogeneous()
	memOn := cluster.MemCapacity > 0
	if mode == ModeCombined && (hetero || memOn) {
		// The combined single-resource relaxation assumes interchangeable
		// unit slots; machine speeds and a second capacity dimension need
		// the per-resource formulation (Config.formulation picks it before
		// ever getting here).
		return nil, fmt.Errorf("core: combined mode cannot model a heterogeneous or memory-constrained cluster")
	}
	horizon := horizonFor(now, cluster, work)
	m := &rd.model
	m.Reset(horizon)
	var nMap, nRed int
	for _, w := range work {
		nMap += len(w.pendingMaps) + len(w.frozenMaps)
		nRed += len(w.pendingReds) + len(w.frozenReds)
	}
	bm := &rd.bm
	bm.model, bm.mode, bm.tasks = m, mode, reserve(bm.tasks, nMap+nRed)

	numRes := cluster.NumResources
	// Cumulative members per slot pool, plus the tasks with a memory demand
	// and that demand. Direct mode posts one cumulative per resource over
	// the same lists: every task is an optional member everywhere.
	mapTasks := reserve(rd.mapTasks, nMap)
	redTasks := reserve(rd.redTasks, nRed)
	memTasks, memDem := rd.memTasks[:0], rd.memDem[:0]
	// ivs holds every job's interval lists: maps then reduces, in model
	// order, then the lists only precedence needs. A list is cut once its
	// job has appended all of it, so growth never moves a list the model
	// holds.
	ivs := reserve(rd.ivs, nMap+nRed)
	// durBuf holds one task's duration table at a time: SetResDurations
	// keeps a copy.
	var durBuf []int64
	if hetero {
		rd.durBuf = reserve(rd.durBuf, numRes)[:numRes]
		durBuf = rd.durBuf
	}

	lates := rd.lates[:0]
	for _, w := range work {
		j := w.job
		est := w.job.EarliestStart
		if est < now {
			est = now // Table 2 lines 1-4: outdated earliest start times advance to now
		}
		first := len(bm.tasks) // the job's tasks are bm.tasks[first:]

		addTask := func(t *workload.Task, fz *frozenTask) error {
			if mode == ModeCombined && t.Req != 1 {
				// The gap-based matchmaking pass places each task on
				// exactly one unit slot; tasks demanding several slots
				// need the direct formulation.
				return fmt.Errorf("core: task %s has demand %d; combined mode requires unit demands",
					t.ID, t.Req)
			}
			dur := t.Exec
			// Pending tasks on a heterogeneous cluster carry one candidate
			// duration per resource; the interval is created at the slowest
			// mode (the table's upper bound) so every start-bound derived
			// from it stays conservative, and the per-resource table below
			// refines it. Frozen attempts already run at their machine's
			// (and straggler-adjusted) effective duration, so they stay
			// plain fixed-length intervals.
			var durs []int64
			if hetero && fz == nil {
				durs = durBuf
				for r := range durs {
					durs[r] = sim.ScaledExec(t.Exec, cluster.SpeedOf(r))
					if durs[r] > dur {
						dur = durs[r]
					}
				}
			}
			if fz != nil {
				dur = fz.exec // as horizonFor and matchmaker.pin read it
			}
			iv := m.NewInterval(t.ID, dur)
			iv.Demand = t.Req
			iv.Due = j.Deadline
			iv.JobKey = j.ID
			if fz != nil {
				// Table 2 line 11: pin started tasks to their placement.
				if fz.start > horizon-dur {
					return fmt.Errorf("core: frozen task %s at %d beyond horizon", t.ID, fz.start)
				}
				m.FixStart(iv, fz.start)
			} else {
				m.SetStartBounds(iv, est, horizon-dur)
			}
			bm.tasks = append(bm.tasks, modelTask{task: t, job: j, iv: iv, frozen: fz != nil})
			ivs = append(ivs, iv)
			if t.Type == workload.MapTask {
				mapTasks = append(mapTasks, iv)
			} else {
				redTasks = append(redTasks, iv)
			}
			if mode == ModeDirect {
				rv := m.NewResVar(iv, numRes)
				if fz != nil {
					m.FixRes(rv, fz.res)
				} else {
					for r := 0; r < numRes; r++ {
						if r < len(down) && down[r] {
							m.ForbidRes(rv, r)
						}
					}
					if durs != nil {
						m.SetResDurations(iv, durs)
					}
				}
				if memOn && t.Mem > 0 {
					memTasks = append(memTasks, iv)
					memDem = append(memDem, t.Mem)
				}
			}
			return nil
		}

		start := len(ivs)
		for _, t := range w.pendingMaps {
			if err := addTask(t, nil); err != nil {
				return nil, err
			}
		}
		for i := range w.frozenMaps {
			if err := addTask(w.frozenMaps[i].task, &w.frozenMaps[i]); err != nil {
				return nil, err
			}
		}
		mid := len(ivs)
		for _, t := range w.pendingReds {
			if err := addTask(t, nil); err != nil {
				return nil, err
			}
		}
		for i := range w.frozenReds {
			if err := addTask(w.frozenReds[i].task, &w.frozenReds[i]); err != nil {
				return nil, err
			}
		}
		end := len(ivs)
		mapIvs, redIvs := ivs[start:mid:mid], ivs[mid:end:end]

		var terminals []*cp.Interval
		if j.TaskPrecedence {
			// Workflow generalization: user-specified task precedence
			// instead of the two-phase barrier. Completed predecessors
			// ended at or before now, which every new start respects, so
			// only incomplete predecessors constrain.
			jobTasks := bm.tasks[first:]
			if rd.index == nil {
				rd.index = make(map[*workload.Task]int)
			}
			clear(rd.index)
			for i, mt := range jobTasks {
				rd.index[mt.task] = i
			}
			rd.hasSucc = reserve(rd.hasSucc, len(jobTasks))[:len(jobTasks)]
			clear(rd.hasSucc)
			for _, mt := range jobTasks {
				from := len(ivs)
				for _, p := range mt.task.Preds {
					if pi, ok := rd.index[p]; ok {
						ivs = append(ivs, jobTasks[pi].iv)
						rd.hasSucc[pi] = true
					}
				}
				if n := len(ivs); n > from {
					ivs = append(ivs, mt.iv)
					m.AddPhaseBarrier(ivs[from:n:n], ivs[n:n+1:n+1])
				}
			}
			from := len(ivs)
			for i, mt := range jobTasks {
				if !rd.hasSucc[i] {
					ivs = append(ivs, mt.iv)
				}
			}
			terminals = ivs[from:len(ivs):len(ivs)]
		} else {
			// Constraint 3: reduces start after the last map. Completed
			// maps ended at or before now, which every new start already
			// respects.
			m.AddPhaseBarrier(mapIvs, redIvs)

			// Constraint 4: N_j reification on the job's terminal phase.
			terminals = redIvs
			if len(terminals) == 0 {
				terminals = mapIvs
			}
		}
		if len(terminals) > 0 && !w.ghost {
			late := m.NewBool("late")
			m.AddLateness(terminals, j.Deadline, late)
			lates = append(lates, late)
		}
	}
	rd.mapTasks, rd.redTasks, rd.memTasks, rd.memDem, rd.ivs, rd.lates =
		mapTasks, redTasks, memTasks, memDem, ivs, lates

	// Constraints 5/6: capacities. In combined mode a down resource shrinks
	// the combined capacity (its unit slots are also blocked during the
	// matchmaking pass); frozen tasks never sit on down resources because
	// an outage kills everything running on it.
	switch mode {
	case ModeCombined:
		upRes := int64(0)
		for r := 0; r < numRes; r++ {
			if r >= len(down) || !down[r] {
				upRes++
			}
		}
		if len(mapTasks) > 0 {
			m.AddCumulative("map", -1, upRes*cluster.MapSlots, mapTasks)
		}
		if len(redTasks) > 0 {
			m.AddCumulative("reduce", -1, upRes*cluster.ReduceSlots, redTasks)
		}
	case ModeDirect:
		names := rd.cumulNames(numRes)
		for r := 0; r < numRes; r++ {
			if len(mapTasks) > 0 {
				m.AddCumulative(names[0][r], r, cluster.MapSlots, mapTasks)
			}
			if len(redTasks) > 0 {
				m.AddCumulative(names[1][r], r, cluster.ReduceSlots, redTasks)
			}
			if len(memTasks) > 0 {
				m.AddCumulativeDemands(names[2][r], r, cluster.MemCapacity, memTasks, memDem)
			}
		}
	}

	// Objective: minimize Σ N_j.
	m.Minimize(lates)
	return bm, nil
}

// horizonFor returns a safe scheduling horizon: everything can run
// serially after the latest release. On heterogeneous clusters every task
// is budgeted at its slowest-machine duration, so the horizon covers even
// an all-slow serial schedule; with uniform speeds the arithmetic is the
// historical integer path.
func horizonFor(now int64, cluster sim.Cluster, work []*jobWork) int64 {
	minSpeed := cluster.MinSpeed()
	h := now + 1
	var total, maxDur int64
	for _, w := range work {
		if w.job.EarliestStart > h {
			h = w.job.EarliestStart + 1
		}
		for _, pool := range [2][]*workload.Task{w.job.MapTasks, w.job.ReduceTasks} {
			for _, t := range pool {
				e := sim.ScaledExec(t.Exec, minSpeed)
				total += e
				if e > maxDur {
					maxDur = e
				}
			}
		}
		// Straggler-slowed frozen attempts can end past their nominal
		// windows; the horizon must cover their true ends.
		for _, f := range w.frozenMaps {
			if end := f.start + f.exec; end > h {
				h = end + 1
			}
		}
		for _, f := range w.frozenReds {
			if end := f.start + f.exec; end > h {
				h = end + 1
			}
		}
	}
	return h + total + maxDur + 1
}
