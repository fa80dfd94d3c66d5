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
// For performance on models with thousands of tasks, the propagator keeps
// its profile between runs and refilters only tasks that need it: those
// whose own variables changed since the last run ("self pending") and those
// whose windows intersect the region of the profile that changed ("dirty
// region"). During forward search mandatory parts only grow, so the growth
// is added to the cached profile in place; any backtrack (detected through
// the store's pop counter) invalidates the cache and forces a full rebuild
// from the sorted event list. Asking an unchanged timetable for its profile
// — which the search does at every placement — costs nothing. Lazy
// filtering is sound: every decided start contributes a mandatory part that
// the overload check validates, so no infeasible assignment can survive to
// a solution.
type cumulative struct {
	name     string
	prop     int // index in Model.props
	resIndex int
	capacity int64
	tasks    []*Interval
	// demands, when non-nil, is the per-task demand vector of this
	// dimension (demands[i] for tasks[i]); nil uses each task's Demand.
	demands []int64

	// Incremental caches. cacheValid says segs is the profile of lastMA/MB;
	// an overload clears it, so that the failure repeats until a backtrack
	// rebuilds the profile.
	cacheValid bool
	cachePops  int64
	lastMA     []int64   // last contributed mandatory part per task position
	lastMB     []int64   // (lastMA >= lastMB means no contribution)
	events     []ttEvent // scratch of a rebuild
	segs       []ttSeg
	builds     int64 // buildSegs executions, for SearchStats.ProfileBuilds

	changed   []int  // positions with unprocessed variable changes
	changedFl []bool //
	self      []int  // positions awaiting a refilter
	selfFl    []bool //
	rawSpans  []span // profile regions that gained load since the last pass
	fullDirty bool   // everything needs refiltering (after a rebuild)
	minDemand int64  // smallest task demand, for the saturation test

	// Scratch buffers for the energetic check, reused across passes so the
	// branch-and-bound hot path stays allocation-free.
	eItems    []energyItem
	eConfined []energyItem
}

type ttEvent struct {
	at    int64
	delta int64
}

// ttSeg is a constant-load segment [from, to) of the profile. Segments are
// disjoint and ascending; outside all segments the load is zero. Neighbours
// may carry equal loads: growth applied in place cuts segments and never
// merges them back.
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
	c := &cumulative{
		name:      name,
		resIndex:  resIndex,
		capacity:  capacity,
		tasks:     tasks,
		demands:   demands,
		lastMA:    make([]int64, len(tasks)),
		lastMB:    make([]int64, len(tasks)),
		changedFl: make([]bool, len(tasks)),
		selfFl:    make([]bool, len(tasks)),
	}
	return c
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

// mandatoryOf returns the task's mandatory part on this resource; a >= b
// means none.
func (c *cumulative) mandatoryOf(m *Model, t *Interval) (int64, int64) {
	if c.onRes(m, t) != onResYes {
		return 0, 0
	}
	return m.StartMax(t), m.StartMin(t) + c.durOf(t)
}

// noteChange records that the bounds or matchmaking domain of tasks[pos]
// changed; the engine calls this on every wake.
func (c *cumulative) noteChange(pos int) {
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
// sub-regions where the profile now blocks at least one task (load plus the
// smallest demand exceeds capacity). Only such regions can move any task's
// feasible window; mere load increases below saturation cannot.
func (c *cumulative) saturatedDirty() (int64, int64) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, sp := range c.rawSpans {
		i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].to > sp.from })
		for ; i < len(c.segs) && c.segs[i].from < sp.to; i++ {
			seg := c.segs[i]
			if seg.load+c.minDemand <= c.capacity {
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

// sortEventsByAt orders events by ascending time via binary-insertion sort;
// sort.Slice here allocated a reflection swapper on every post-backtrack
// rebuild, which made it a measurable slice of the search's allocations.
func sortEventsByAt(s []ttEvent) {
	for i := 1; i < len(s); i++ {
		ev := s[i]
		j := sort.Search(i, func(k int) bool { return s[k].at > ev.at })
		copy(s[j+1:i+1], s[j:i])
		s[j] = ev
	}
}

// rebuildFull recomputes every contribution from scratch and marks
// everything for refiltering.
func (c *cumulative) rebuildFull(m *Model) {
	c.events = c.events[:0]
	c.minDemand = math.MaxInt64
	for i, t := range c.tasks {
		a, b := c.mandatoryOf(m, t)
		c.lastMA[i], c.lastMB[i] = a, b
		dem := c.demandAt(i)
		if a < b {
			c.events = append(c.events, ttEvent{a, dem}, ttEvent{b, -dem})
		}
		if dem < c.minDemand {
			c.minDemand = dem
		}
		c.changedFl[i] = false
		c.selfFl[i] = false
	}
	c.changed = c.changed[:0]
	c.self = c.self[:0]
	c.rawSpans = c.rawSpans[:0]
	sortEventsByAt(c.events)
	c.fullDirty = true
	c.cachePops = m.store.pops
}

// applyIncremental folds the pending per-task changes into the profile,
// extends the dirty region, and moves the tasks onto the self-refilter
// list. It returns errFail on capacity overload.
func (c *cumulative) applyIncremental(m *Model) error {
	for _, pos := range c.changed {
		c.changedFl[pos] = false
		if !c.selfFl[pos] {
			c.selfFl[pos] = true
			c.self = append(c.self, pos)
		}
		t := c.tasks[pos]
		oldA, oldB := c.lastMA[pos], c.lastMB[pos]
		newA, newB := c.mandatoryOf(m, t)
		if oldA == newA && oldB == newB {
			continue
		}
		c.lastMA[pos], c.lastMB[pos] = newA, newB
		c.markRaw(oldA, oldB)
		c.markRaw(newA, newB)
		dem := c.demandAt(pos)
		var err error
		switch {
		case newA >= newB && oldA >= oldB:
			// Still no mandatory part.
		case oldA >= oldB:
			err = c.addLoad(newA, newB, dem)
		case newA <= oldA && oldB <= newB:
			if err = c.addLoad(newA, oldA, dem); err == nil {
				err = c.addLoad(oldB, newB, dem)
			}
		default:
			// A mandatory part shrank without a backtrack, which propagation
			// never does; start over rather than trust the cache.
			c.rebuildFull(m)
			return c.buildSegs()
		}
		if err != nil {
			c.cacheValid = false
			return err
		}
	}
	c.changed = c.changed[:0]
	return nil
}

// addLoad raises the profile by dem over [lo, hi), cutting segments at lo
// and hi and filling gaps between segments as needed. It returns errFail
// where that exceeds capacity.
func (c *cumulative) addLoad(lo, hi, dem int64) error {
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].to > lo })
	for lo < hi {
		switch {
		case i == len(c.segs) || c.segs[i].from >= hi:
			c.segs = slices.Insert(c.segs, i, ttSeg{lo, hi, 0}) // nothing up to hi
		case c.segs[i].from > lo:
			c.segs = slices.Insert(c.segs, i, ttSeg{lo, c.segs[i].from, 0}) // a gap first
		case c.segs[i].from < lo:
			// The head of the segment keeps its load.
			c.segs = slices.Insert(c.segs, i, ttSeg{c.segs[i].from, lo, c.segs[i].load})
			i++
			c.segs[i].from = lo
		}
		// segs[i] now starts at lo; so does its tail past hi, if any.
		if c.segs[i].to > hi {
			c.segs = slices.Insert(c.segs, i+1, ttSeg{hi, c.segs[i].to, c.segs[i].load})
			c.segs[i].to = hi
		}
		c.segs[i].load += dem
		if c.segs[i].load > c.capacity {
			return errFail
		}
		lo = c.segs[i].to
		i++
	}
	return nil
}

// buildSegs derives the constant-load segments from the sorted event list
// and returns errFail if the profile exceeds capacity anywhere.
func (c *cumulative) buildSegs() error {
	c.builds++
	c.cacheValid = false
	c.segs = c.segs[:0]
	var load int64
	i := 0
	for i < len(c.events) {
		at := c.events[i].at
		for i < len(c.events) && c.events[i].at == at {
			load += c.events[i].delta
			i++
		}
		if load > c.capacity {
			return errFail
		}
		if n := len(c.segs); n > 0 {
			c.segs[n-1].to = at
		}
		if i < len(c.events) {
			c.segs = append(c.segs, ttSeg{from: at, load: load})
		}
	}
	for len(c.segs) > 0 && c.segs[len(c.segs)-1].load == 0 {
		c.segs = c.segs[:len(c.segs)-1]
	}
	c.cacheValid = true
	return nil
}

// refresh brings the profile up to date with the store, returning errFail
// on capacity overload. It does nothing when no backtrack happened and no
// watched task changed since the last call, and rebuilds the profile from
// scratch only after a backtrack.
func (c *cumulative) refresh(m *Model) error {
	if c.cacheValid && c.cachePops == m.store.pops {
		if len(c.changed) == 0 {
			return nil
		}
		return c.applyIncremental(m)
	}
	c.rebuildFull(m)
	return c.buildSegs()
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
		if fullPass {
			// Energetic overload check (see energy.go): runs on root
			// propagation and after backtracks, where deadline windows
			// carry the information timetabling cannot see.
			if err := c.energyCheck(m); err != nil {
				return err
			}
		}
		dLo, dHi := c.saturatedDirty()
		dirty := dLo < dHi
		if !fullPass && !dirty && len(c.self) == 0 {
			return nil
		}
		progressed := false
		if fullPass {
			// After a (re)build: one bound-consistent sweep over all tasks.
			for pos := range c.tasks {
				p, err := c.filterTask(e, pos, true)
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
				for pos, t := range c.tasks {
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
