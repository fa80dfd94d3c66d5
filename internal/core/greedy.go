package core

import (
	"fmt"
	"sort"

	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// The greedy degradation path: when the CP solver produces no usable
// solution (budget expired under strict limits, or a recovered panic), the
// manager must still install a valid schedule so the simulation makes
// progress. Jobs are taken in earliest-deadline-first order and their
// tasks placed at the earliest feasible instants, honoring frozen
// (running) attempts, reduce-after-map precedence, and down resources.
// The result is typically worse than the CP schedule — that is the point:
// degraded, not dead.

// greedyFallback installs an EDF schedule for all pending work.
func (m *Manager) greedyFallback(ctx sim.Context, mode SolveMode, now int64, work []*jobWork, down []bool) error {
	ordered := append([]*jobWork(nil), work...)
	sort.SliceStable(ordered, func(a, b int) bool {
		if ordered[a].job.Deadline != ordered[b].job.Deadline {
			return ordered[a].job.Deadline < ordered[b].job.Deadline
		}
		return ordered[a].job.ID < ordered[b].job.ID
	})
	if mode == ModeCombined {
		return m.greedyCombined(ctx, now, ordered, down)
	}
	return m.greedyDirect(ctx, now, ordered, down)
}

// pendingInOrder lists the job's unstarted tasks so that each comes after
// its predecessors: maps then reduces for a classic job, the job's
// topological order for a workflow, whose map-pool tasks may wait on
// reduce-pool ones.
func (w *jobWork) pendingInOrder() []*workload.Task {
	all := append(append([]*workload.Task(nil), w.pendingMaps...), w.pendingReds...)
	if !w.job.TaskPrecedence {
		return all
	}
	pending := make(map[*workload.Task]bool, len(all))
	for _, t := range all {
		pending[t] = true
	}
	// The job was validated on arrival, so its order exists.
	order, _ := w.job.TopoOrder()
	all = all[:0]
	for _, t := range order {
		if pending[t] {
			all = append(all, t)
		}
	}
	return all
}

// greedyCombined reuses the matchmaking slot timelines: frozen tasks stay
// pinned on their remembered unit slots, then pending tasks go wherever
// they fit first.
func (m *Manager) greedyCombined(ctx sim.Context, now int64, ordered []*jobWork, down []bool) error {
	mk, err := m.roundMatchmaker(now, ordered, down)
	if err != nil {
		return err
	}
	for _, w := range ordered {
		est := w.job.EarliestStart
		if est < now {
			est = now
		}
		for _, t := range w.pendingInOrder() {
			a := mk.place(t, est, w.job.TaskPrecedence)
			m.unitSlot[t] = a.slot
			if err := ctx.Schedule(t, a.res, a.start); err != nil {
				return err
			}
		}
	}
	return nil
}

// capProfile is one resource's committed demand over time for one slot
// kind; queries are linear scans — acceptable for the rarely-taken
// fallback path.
type capProfile struct {
	spans []capSpan
}

type capSpan struct {
	from, to int64
	req      int64
}

func (p *capProfile) add(from, to, req int64) {
	p.spans = append(p.spans, capSpan{from, to, req})
}

func (p *capProfile) useAt(t int64) int64 {
	var u int64
	for _, s := range p.spans {
		if s.from <= t && t < s.to {
			u += s.req
		}
	}
	return u
}

// maxUse returns the peak committed demand over [start, end).
func (p *capProfile) maxUse(start, end int64) int64 {
	peak := p.useAt(start)
	for _, s := range p.spans {
		if s.from > start && s.from < end {
			if u := p.useAt(s.from); u > peak {
				peak = u
			}
		}
	}
	return peak
}

// earliestFit returns the smallest start >= from where req units fit under
// cap for dur; candidate starts are from and every span end after it.
func (p *capProfile) earliestFit(from, dur, req, cap int64) int64 {
	cands := []int64{from}
	for _, s := range p.spans {
		if s.to > from {
			cands = append(cands, s.to)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, c := range cands {
		if p.maxUse(c, c+dur)+req <= cap {
			return c
		}
	}
	// Unreachable: past the last span end the profile is empty and the
	// simulator guarantees req <= cap.
	return cands[len(cands)-1]
}

// greedyDirect places tasks on per-resource capacity profiles (direct mode
// allows multi-slot demands, which the unit-slot matchmaker cannot model).
// It is speed- and memory-aware: each resource is probed with the task's
// machine-scaled duration (and, when the cluster has a memory dimension,
// a joint slot+memory fit), and the resource finishing the task earliest
// wins. On uniform clusters the duration term is constant and there is no
// memory profile, so the choice degenerates to the historical
// earliest-start, lowest-index rule bit for bit.
func (m *Manager) greedyDirect(ctx sim.Context, now int64, ordered []*jobWork, down []bool) error {
	n := m.cluster.NumResources
	mapProf := make([]capProfile, n)
	redProf := make([]capProfile, n)
	var memProf []capProfile
	if m.cluster.MemCapacity > 0 {
		memProf = make([]capProfile, n)
	}
	taskEnd := make(map[*workload.Task]int64)
	mapEnd := make(map[int]int64) // per job: latest placed/frozen map end

	profile := func(t *workload.Task, r int) *capProfile {
		if t.Type == workload.MapTask {
			return &mapProf[r]
		}
		return &redProf[r]
	}
	// jointFit finds the earliest start >= lb where both the slot profile
	// and (when present) the memory profile of resource r admit the task
	// for dur: the two earliestFit passes alternate until they agree, which
	// terminates because candidate starts only move forward through a
	// finite set of span boundaries.
	jointFit := func(t *workload.Task, r int, lb, dur, cap int64) int64 {
		at := profile(t, r).earliestFit(lb, dur, t.Req, cap)
		if memProf == nil || t.Mem == 0 {
			return at
		}
		for {
			memAt := memProf[r].earliestFit(at, dur, t.Mem, m.cluster.MemCapacity)
			if memAt == at {
				return at
			}
			at = profile(t, r).earliestFit(memAt, dur, t.Req, cap)
			if at == memAt {
				return at
			}
		}
	}
	for _, w := range ordered {
		for _, f := range append(append([]frozenTask(nil), w.frozenMaps...), w.frozenReds...) {
			profile(f.task, f.res).add(f.start, f.start+f.exec, f.task.Req)
			if memProf != nil && f.task.Mem > 0 {
				memProf[f.res].add(f.start, f.start+f.exec, f.task.Mem)
			}
			taskEnd[f.task] = f.start + f.exec
			if f.task.Type == workload.MapTask {
				if end := f.start + f.exec; end > mapEnd[w.job.ID] {
					mapEnd[w.job.ID] = end
				}
			}
		}
	}
	for _, w := range ordered {
		est := w.job.EarliestStart
		if est < now {
			est = now
		}
		for _, t := range w.pendingInOrder() {
			lb := est
			if w.job.TaskPrecedence {
				for _, p := range t.Preds {
					if end := taskEnd[p]; end > lb {
						lb = end
					}
				}
			} else if t.Type == workload.ReduceTask {
				if end := mapEnd[w.job.ID]; end > lb {
					lb = end
				}
			}
			cap := m.cluster.MapSlots
			if t.Type == workload.ReduceTask {
				cap = m.cluster.ReduceSlots
			}
			bestRes, bestAt, bestEnd := -1, int64(0), int64(0)
			for r := 0; r < n; r++ {
				if r < len(down) && down[r] {
					continue
				}
				dur := sim.ScaledExec(t.Exec, m.cluster.SpeedOf(r))
				at := jointFit(t, r, lb, dur, cap)
				if bestRes < 0 || at+dur < bestEnd {
					bestRes, bestAt, bestEnd = r, at, at+dur
				}
			}
			if bestRes < 0 {
				return fmt.Errorf("core: greedy fallback found no up resource for task %s", t.ID)
			}
			profile(t, bestRes).add(bestAt, bestEnd, t.Req)
			if memProf != nil && t.Mem > 0 {
				memProf[bestRes].add(bestAt, bestEnd, t.Mem)
			}
			taskEnd[t] = bestEnd
			if t.Type == workload.MapTask && bestEnd > mapEnd[w.job.ID] {
				mapEnd[w.job.ID] = bestEnd
			}
			if err := ctx.Schedule(t, bestRes, bestAt); err != nil {
				return err
			}
		}
	}
	return nil
}
