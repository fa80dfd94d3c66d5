package cp

import (
	"math"
	"slices"
	"sort"
)

// cumulative implements Constraints 5/6 via timetable propagation: the
// profile of mandatory parts of tasks known to run on the resource must
// never exceed capacity, and task start windows are pruned so that each
// task fits somewhere on the residual profile. Tasks whose matchmaking
// variable still allows several resources contribute no mandatory part but
// lose this resource from their domain if they can no longer fit on it.
//
// On models with thousands of tasks a search node must cost what it
// changed, not what the model holds, so the propagator keeps three things
// between runs:
//
//   - The profile. It is derived from the sorted event list once per solve,
//     at the root; after that every change of a task's mandatory part —
//     whether a mutator or a pop made it — is folded in as the difference
//     between the part the profile holds for the task (lastMA/lastMB) and
//     the part the store now gives it. The engine tells the cumulative
//     which tasks a pop restored, so undoing a level costs what the level
//     did. Segments are kept canonical (no zero-load segment, no two
//     touching segments of equal load), which leaves the load function —
//     all that filtering reads while no demand exceeds capacity — the one a
//     rebuild from scratch derives.
//   - The pending lists: tasks whose own variables changed since the last
//     run ("self pending") and the regions of the profile that gained load
//     ("dirty region"). Lazy filtering is sound: every decided start
//     contributes a mandatory part that the overload check validates, so no
//     infeasible assignment can survive to a solution.
//   - A time-bucketed index of the tasks that are not settled (taskIndex),
//     from which both sweeps take their candidates: filterTask can prune a
//     task only if its window at StartMin or at StartMax overlaps a segment
//     where load plus the largest demand exceeds capacity ("blocking"), so
//     a sweep visits the tasks such a segment can reach instead of every
//     task. Candidates are visited in ascending position order under the
//     sweep's exact predicate, and filterTask has no side effect when it
//     prunes nothing, so the pruning is the one a scan over every task
//     makes.
//
// The first pass after a pop (and the root pass) is a full pass: both
// bounds of every reachable task.
type cumulative struct {
	name     string
	prop     int // index in Model.props
	resIndex int
	capacity int64
	tasks    []*Interval
	// demands, when non-nil, is the per-task demand vector of this
	// dimension (demands[i] for tasks[i]); nil uses each task's Demand.
	demands []int64

	// The profile. built says segs has been derived from the event list
	// (once, at the first refresh); pops is the store's pop count the
	// profile last caught up with; over counts the segments whose load
	// exceeds capacity — refresh fails while it is positive.
	built  bool
	pops   int64
	over   int
	lastMA []int64 // mandatory part the profile holds per task position
	lastMB []int64 // ((0, 0) when none)
	segs   []ttSeg
	builds int64 // buildSegs executions, for SearchStats.ProfileBuilds

	changed   []int  // positions with unprocessed variable changes
	changedFl []bool //
	self      []int  // positions awaiting a refilter
	selfFl    []bool //
	rawSpans  []span // profile regions that gained load since the last pass
	fullDirty bool   // the next pass is a full pass (root, or after a pop)
	minDemand int64  // smallest task demand, for the saturation test
	maxDemand int64  // largest task demand, for the reach test
	dmax      int64  // longest duration a task can have, on this resource or any

	// idx is shared with every cumulative posted over the same task list;
	// sweepWork counts the index entries the sweeps examined, for
	// SearchStats.SweepWork.
	idx       *taskIndex
	sweepWork int64
	// fam is the family of a resource-indexed timetable, nil for a
	// combined one (see family).
	fam *family

	// handle is what AddCumulativeDemands returns.
	handle Cumulative
}

type ttEvent struct {
	at    int64
	delta int64
}

// ttSeg is a constant-load segment [from, to) of the profile. Segments are
// disjoint, ascending and canonical: no load is zero, and touching
// neighbours carry different loads. Outside all segments the load is zero.
type ttSeg struct {
	from, to int64
	load     int64
}

type onResState int

const (
	onResNo onResState = iota
	onResMaybe
	onResYes
)

func newCumulative(name string, resIndex int, capacity int64, tasks []*Interval, demands []int64) *cumulative {
	c := new(cumulative)
	c.reset(name, resIndex, capacity, tasks, demands)
	return c
}

// reset makes c the cumulative newCumulative would return, keeping the
// memory of the per-task arrays, the profile and the pending lists. The
// flags must start clear: noteChange lists a position only when its flag
// is, and rebuildFull clears only the flags of listed positions.
func (c *cumulative) reset(name string, resIndex int, capacity int64, tasks []*Interval, demands []int64) {
	n := len(tasks)
	*c = cumulative{
		name:      name,
		resIndex:  resIndex,
		capacity:  capacity,
		tasks:     tasks,
		demands:   demands,
		lastMA:    resized(c.lastMA, n),
		lastMB:    resized(c.lastMB, n),
		segs:      c.segs[:0],
		changed:   c.changed[:0],
		changedFl: cleared(c.changedFl, n),
		self:      c.self[:0],
		selfFl:    cleared(c.selfFl, n),
		rawSpans:  c.rawSpans[:0],
	}
	c.handle.c = c
	for _, t := range tasks {
		c.dmax = max(c.dmax, t.Dur, c.durOf(t))
	}
}

// demandAt returns the demand tasks[pos] places on this dimension.
func (c *cumulative) demandAt(pos int) int64 {
	if c.demands != nil {
		return c.demands[pos]
	}
	return c.tasks[pos].Demand
}

// durOf returns the time t occupies this cumulative when running on it:
// its duration on the cumulative's resource for heterogeneous intervals,
// its uniform duration otherwise.
func (c *cumulative) durOf(t *Interval) int64 {
	return t.DurOn(c.resIndex)
}

func (c *cumulative) onRes(m *Model, t *Interval) onResState {
	if t.resVar == nil || c.resIndex < 0 {
		return onResYes
	}
	if !m.ResAllowed(t.resVar, c.resIndex) {
		return onResNo
	}
	if m.ResDomainSize(t.resVar) == 1 {
		return onResYes
	}
	return onResMaybe
}

// mandatoryOf returns the task's mandatory part on this resource, (0, 0)
// when it has none.
func (c *cumulative) mandatoryOf(m *Model, t *Interval) (int64, int64) {
	if c.onRes(m, t) != onResYes {
		return 0, 0
	}
	if a, b := m.StartMax(t), m.StartMin(t)+c.durOf(t); a < b {
		return a, b
	}
	return 0, 0
}

// saturated reports whether a segment blocks every task: its load plus the
// smallest demand exceeds capacity.
func (c *cumulative) saturated(s ttSeg) bool { return s.load+c.minDemand > c.capacity }

// blocking reports whether a segment blocks some task: its load plus the
// largest demand exceeds capacity. filterTask prunes a task only where a
// segment blocks it.
func (c *cumulative) blocking(s ttSeg) bool { return s.load+c.maxDemand > c.capacity }

// noteChange records that the bounds or matchmaking domain of tasks[pos]
// changed, or that a pop restored them; the engine calls this on every
// wake and for every task a pop restores, and a family calls markChanged
// and the index's note for its members.
func (c *cumulative) noteChange(pos int) {
	c.markChanged(pos)
	c.idx.note(pos)
}

// markChanged lists tasks[pos] for the next refresh to reconcile.
func (c *cumulative) markChanged(pos int) {
	if !c.changedFl[pos] {
		c.changedFl[pos] = true
		c.changed = append(c.changed, pos)
	}
}

func (c *cumulative) markRaw(lo, hi int64) {
	if lo < hi {
		c.rawSpans = append(c.rawSpans, span{lo, hi})
	}
}

// saturatedDirty reduces the raw changed spans to the bounding box of the
// sub-regions where the profile is now saturated. The dirty sweep refilters
// only around such regions; mere load increases below saturation leave the
// tasks to the self-pending refilter and the next full pass.
func (c *cumulative) saturatedDirty() (int64, int64) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, sp := range c.rawSpans {
		i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].to > sp.from })
		for ; i < len(c.segs) && c.segs[i].from < sp.to; i++ {
			seg := c.segs[i]
			if !c.saturated(seg) {
				continue
			}
			if f := max64(seg.from, sp.from); f < lo {
				lo = f
			}
			if t := min64(seg.to, sp.to); t > hi {
				hi = t
			}
		}
	}
	c.rawSpans = c.rawSpans[:0]
	return lo, hi
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// rebuildFull derives every contribution and the profile from the store
// and marks everything for refiltering. It runs once per solve, at the
// first refresh.
func (c *cumulative) rebuildFull(m *Model) {
	parts := 0
	c.minDemand, c.maxDemand = math.MaxInt64, math.MinInt64
	for i, t := range c.tasks {
		a, b := c.mandatoryOf(m, t)
		c.lastMA[i], c.lastMB[i] = a, b
		if a < b {
			parts++
		}
		dem := c.demandAt(i)
		c.minDemand, c.maxDemand = min(c.minDemand, dem), max(c.maxDemand, dem)
	}
	for _, pos := range c.changed {
		c.changedFl[pos] = false
	}
	c.changed = c.changed[:0]
	for _, pos := range c.self {
		c.selfFl[pos] = false
	}
	c.self = c.self[:0]
	c.rawSpans = c.rawSpans[:0]
	if cap(m.ttEvents) < 2*parts {
		m.ttEvents = make([]ttEvent, 0, 2*parts)
	}
	events := m.ttEvents[:0]
	for i, a := range c.lastMA {
		if b := c.lastMB[i]; a < b {
			dem := c.demandAt(i)
			events = append(events, ttEvent{a, dem}, ttEvent{b, -dem})
		}
	}
	slices.SortFunc(events, func(a, b ttEvent) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	c.buildSegs(events)
	c.built = true
	c.fullDirty = true
	c.pops = m.store.pops
}

// buildSegs derives the canonical segments from the sorted event list and
// counts the ones over capacity.
func (c *cumulative) buildSegs(events []ttEvent) {
	c.builds++
	c.segs = c.segs[:0]
	c.over = 0
	var load int64
	for i := 0; i < len(events); {
		at, prev := events[i].at, load
		for ; i < len(events) && events[i].at == at; i++ {
			load += events[i].delta
		}
		if load == prev {
			continue
		}
		if prev != 0 {
			c.segs[len(c.segs)-1].to = at
		}
		if load != 0 {
			c.segs = append(c.segs, ttSeg{from: at, load: load})
			if load > c.capacity {
				c.over++
			}
		}
	}
}

// addLoad raises the profile by dem over [lo, hi) — lowers it, for a
// negative dem — keeping the segments canonical and c.over current. It
// cuts segments at lo and hi and fills gaps as needed; inside the range
// touching segments keep distinct loads, so what canonical form asks of the
// edit is dropping segments a decrease emptied and merging across lo and
// hi.
func (c *cumulative) addLoad(lo, hi, dem int64) {
	if lo >= hi || dem == 0 {
		return
	}
	first := sort.Search(len(c.segs), func(k int) bool { return c.segs[k].to > lo })
	k := first
	for at := lo; at < hi; k++ {
		switch {
		case k == len(c.segs) || c.segs[k].from >= hi:
			c.segs = slices.Insert(c.segs, k, ttSeg{at, hi, 0}) // nothing up to hi
		case c.segs[k].from > at:
			c.segs = slices.Insert(c.segs, k, ttSeg{at, c.segs[k].from, 0}) // a gap first
		case c.segs[k].from < at:
			// The head of the segment keeps its load.
			c.segs = slices.Insert(c.segs, k+1, ttSeg{at, c.segs[k].to, c.segs[k].load})
			c.segs[k].to = at
			c.countOver(c.segs[k].load, 1)
			k++
			first = k // only the first piece can start before lo
		}
		// segs[k] now starts at at; so does its tail past hi, if any.
		if c.segs[k].to > hi {
			c.segs = slices.Insert(c.segs, k+1, ttSeg{hi, c.segs[k].to, c.segs[k].load})
			c.segs[k].to = hi
			c.countOver(c.segs[k].load, 1)
		}
		c.countOver(c.segs[k].load, -1)
		c.segs[k].load += dem
		c.countOver(c.segs[k].load, 1)
		at = c.segs[k].to
	}
	// segs[first:k] now covers [lo, hi).
	if dem < 0 {
		w := first
		for _, s := range c.segs[first:k] {
			if s.load != 0 {
				c.segs[w] = s
				w++
			}
		}
		c.segs = slices.Delete(c.segs, w, k)
		k = w
	}
	c.mergeAt(k)
	c.mergeAt(first)
}

// countOver adjusts c.over for n segments of the given load appearing (n >
// 0) or going (n < 0).
func (c *cumulative) countOver(load int64, n int) {
	if load > c.capacity {
		c.over += n
	}
}

// mergeAt merges segs[k] into segs[k-1] when they touch at equal load.
func (c *cumulative) mergeAt(k int) {
	if k <= 0 || k >= len(c.segs) {
		return
	}
	if prev, s := c.segs[k-1], c.segs[k]; prev.to == s.from && prev.load == s.load {
		c.segs[k-1].to = s.to
		c.countOver(s.load, -1)
		c.segs = slices.Delete(c.segs, k, k+1)
	}
}

// reconcile makes the profile's contribution of tasks[pos] the mandatory
// part the store now gives it. With mark it records the old and new parts
// as changed profile regions.
func (c *cumulative) reconcile(m *Model, pos int, mark bool) {
	oldA, oldB := c.lastMA[pos], c.lastMB[pos]
	newA, newB := c.mandatoryOf(m, c.tasks[pos])
	if oldA == newA && oldB == newB {
		return
	}
	c.lastMA[pos], c.lastMB[pos] = newA, newB
	if mark {
		c.markRaw(oldA, oldB)
		c.markRaw(newA, newB)
	}
	dem := c.demandAt(pos)
	switch {
	case oldA >= oldB:
		c.addLoad(newA, newB, dem)
	case newA >= newB:
		c.addLoad(oldA, oldB, -dem)
	case newA < oldB && oldA < newB:
		// Overlapping parts: move the two ends. Forward search only ever
		// grows a part; a pop shrinks it.
		if newA < oldA {
			c.addLoad(newA, oldA, dem)
		} else {
			c.addLoad(oldA, newA, -dem)
		}
		if newB > oldB {
			c.addLoad(oldB, newB, dem)
		} else {
			c.addLoad(newB, oldB, -dem)
		}
	default:
		c.addLoad(oldA, oldB, -dem)
		c.addLoad(newA, newB, dem)
	}
}

// applyIncremental folds the pending per-task changes into the profile,
// extends the dirty region, and moves the tasks onto the
// self-refilter list.
func (c *cumulative) applyIncremental(m *Model) {
	for _, pos := range c.changed {
		c.changedFl[pos] = false
		if !c.selfFl[pos] {
			c.selfFl[pos] = true
			c.self = append(c.self, pos)
		}
		c.reconcile(m, pos, true)
	}
	c.changed = c.changed[:0]
}

// catchUp brings the profile back to the store after one or more pops,
// from the tasks the pops restored (and any change still pending), and
// schedules a full pass: what the pending lists held describes levels that
// no longer exist.
func (c *cumulative) catchUp(m *Model) {
	for _, pos := range c.changed {
		c.changedFl[pos] = false
		c.reconcile(m, pos, false)
	}
	c.changed = c.changed[:0]
	for _, pos := range c.self {
		c.selfFl[pos] = false
	}
	c.self = c.self[:0]
	c.rawSpans = c.rawSpans[:0]
	c.fullDirty = true
	c.pops = m.store.pops
}

// refresh brings the profile up to date with the store, returning errFail
// while it exceeds capacity anywhere. It costs nothing when no watched task
// changed since the last call, and what changed otherwise.
func (c *cumulative) refresh(m *Model) error {
	switch {
	case !c.built:
		c.rebuildFull(m)
	case c.pops != m.store.pops:
		c.catchUp(m)
	case len(c.changed) > 0:
		c.applyIncremental(m)
	}
	if c.over > 0 {
		return errFail
	}
	return nil
}

// earliestFit returns the smallest start >= from at which a window of the
// task's duration on this resource, at demand dem on this dimension, fits
// under capacity on the current profile. When withOwn is true, t's own
// mandatory part [mA, mB) is discounted from the profile.
func (c *cumulative) earliestFit(m *Model, t *Interval, dem, from int64, withOwn bool) int64 {
	dur := c.durOf(t)
	var mA, mB int64
	if withOwn {
		mA, mB = m.StartMax(t), m.StartMin(t)+dur
	}
	st := from
	first := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].to > st })
	for i := first; i < len(c.segs); i++ {
		seg := c.segs[i]
		if seg.to <= st {
			continue
		}
		if seg.from >= st+dur {
			break
		}
		if seg.load+dem <= c.capacity {
			continue
		}
		// The segment conflicts except where t's own mandatory part covers
		// it: the remainder is at most two spans, scanned here in increasing
		// order without materializing them (this is the search's hottest
		// loop; the old subtract() allocation dominated the solve profile).
		lo1, hi1 := seg.from, seg.to
		var lo2, hi2 int64
		if mA < mB && mA < seg.to && mB > seg.from {
			hi1 = min64(seg.to, mA)
			lo2, hi2 = max64(seg.from, mB), seg.to
		}
		if hi1 > lo1 && hi1 > st && lo1 < st+dur {
			st = hi1 // jump past the conflict and rescan this segment window
		}
		if hi2 > lo2 && hi2 > st && lo2 < st+dur {
			st = hi2
		}
	}
	return st
}

// latestFit returns the largest start <= from at which the task's window
// fits on the profile; the result may fall below the task's start window,
// which the caller detects through setStartMax failing.
func (c *cumulative) latestFit(m *Model, t *Interval, dem, from int64, withOwn bool) int64 {
	dur := c.durOf(t)
	var mA, mB int64
	if withOwn {
		mA, mB = m.StartMax(t), m.StartMin(t)+dur
	}
	st := from
	last := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].from >= st+dur }) - 1
	for i := last; i >= 0; i-- {
		seg := c.segs[i]
		if seg.from >= st+dur {
			continue
		}
		if seg.to <= st {
			break
		}
		if seg.load+dem <= c.capacity {
			continue
		}
		// Mirror of earliestFit's inline subtraction, spans visited in
		// decreasing order for the backward scan.
		lo1, hi1 := seg.from, seg.to
		var lo2, hi2 int64
		if mA < mB && mA < seg.to && mB > seg.from {
			hi1 = min64(seg.to, mA)
			lo2, hi2 = max64(seg.from, mB), seg.to
		}
		if hi2 > lo2 && hi2 > st && lo2 < st+dur {
			st = lo2 - dur // pull the window fully before the conflict
		}
		if hi1 > lo1 && hi1 > st && lo1 < st+dur {
			st = lo1 - dur
		}
	}
	return st
}

type span struct{ from, to int64 }

func overlaps(aLo, aHi, bLo, bHi int64) bool {
	return aLo < bHi && bLo < aHi
}

// filterTask prunes tasks[pos] against the current profile. It reports
// whether any domain changed. withMin selects whether the earliest-fit
// bound is tightened too: a full pass maintains both bounds, while the
// incremental passes skip the min side — the search computes each task's
// true earliest fit lazily at placement time instead, which keeps the cost
// of a decision independent of the number of pending tasks.
//
// It can prune only a task whose window at StartMin (min side, and the
// resource test) or at StartMax (max side) overlaps a blocking segment,
// and it has no side effect when it prunes nothing; the sweeps' candidate
// sets rest on both facts.
func (c *cumulative) filterTask(e *engine, pos int, withMin bool) (bool, error) {
	m := e.m
	t, dem := c.tasks[pos], c.demandAt(pos)
	progressed := false
	switch c.onRes(m, t) {
	case onResYes:
		if m.Fixed(t) {
			return false, nil
		}
		if withMin {
			if st := c.earliestFit(m, t, dem, m.StartMin(t), true); st > m.StartMin(t) {
				if err := e.setStartMin(t, st); err != nil {
					return true, err
				}
				progressed = true
			}
		}
		if st := c.latestFit(m, t, dem, m.StartMax(t), true); st < m.StartMax(t) {
			if err := e.setStartMax(t, st); err != nil {
				return true, err
			}
			progressed = true
		}
	case onResMaybe:
		// If the task can no longer fit anywhere on this resource, remove
		// the resource from its matchmaking domain.
		if st := c.earliestFit(m, t, dem, m.StartMin(t), false); st > m.StartMax(t) {
			if err := e.removeRes(t.resVar, c.resIndex); err != nil {
				return true, err
			}
			progressed = true
		}
	}
	return progressed, nil
}

func (c *cumulative) propagate(e *engine) error {
	m := e.m
	for {
		if err := c.refresh(m); err != nil {
			return err
		}
		fullPass := c.fullDirty
		c.fullDirty = false
		dLo, dHi := c.saturatedDirty()
		dirty := dLo < dHi
		if !fullPass && !dirty && len(c.self) == 0 {
			return nil
		}
		progressed := false
		if fullPass {
			// At the root and after a pop: one bound-consistent sweep over
			// every task a blocking segment can reach.
			e.sweep = c.reachable(m, e.sweep[:0])
			for _, pos := range e.sweep {
				p, err := c.filterTask(e, int(pos), true)
				progressed = progressed || p
				if err != nil {
					return err
				}
			}
		} else {
			// Refilter self-pending tasks (their own variables changed).
			for _, pos := range c.self {
				c.selfFl[pos] = false
				p, err := c.filterTask(e, pos, false)
				progressed = progressed || p
				if err != nil {
					return err
				}
			}
			c.self = c.self[:0]
			if dirty {
				// The profile gained a blocking region: prune deadline-side
				// windows that touch it, and matchmaking domains of tasks
				// that may lose their only spot on this resource.
				e.sweep = c.dirtyCandidates(m, dLo, dHi, e.sweep[:0])
				for _, p32 := range e.sweep {
					pos := int(p32)
					t := c.tasks[pos]
					if m.Fixed(t) && t.resVar == nil {
						continue
					}
					var need bool
					if t.resVar != nil && c.resIndex >= 0 && c.onRes(m, t) == onResMaybe {
						need = overlaps(m.StartMin(t), m.EndMax(t), dLo, dHi)
					} else {
						need = overlaps(m.StartMax(t), m.EndMax(t), dLo, dHi)
					}
					if !need {
						continue
					}
					p, err := c.filterTask(e, pos, false)
					progressed = progressed || p
					if err != nil {
						return err
					}
				}
			}
		}
		if !progressed && len(c.changed) == 0 {
			return nil
		}
	}
}
