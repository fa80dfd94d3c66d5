package cp

import (
	"math"
	"slices"
)

// taskIndex files the tasks of one task list in fixed-width time buckets,
// once by StartMin and once by StartMax, so a sweep can ask which tasks a
// blocking region of the profile can reach without looking at the others.
// Every cumulative posted over the same task list (the per-resource
// timetables of one pool in direct mode) shares one index: the keys are
// the tasks' own bounds, and each cumulative applies its own resource test
// to what the index returns.
//
// A task is filed while it is not settled — settled meaning its start and
// its resource are both decided, which leaves filterTask nothing to prune
// on any timetable. The index hears of every task whose variables a
// mutator or a pop changed (noteChange) and re-files those, once each,
// before it answers the next query, so it follows the store at the cost of
// what changed however many cumulatives share it. It is built on the first
// sweep that has a blocking segment to ask about and sized once: a head per
// bucket, a doubly linked chain node per task and key, and the list of
// tasks to re-file.
type taskIndex struct {
	t0, width int64 // bucket b holds keys in [t0+b*width, t0+(b+1)*width); the end buckets hold the rest
	nb        int
	capSum    int64 // capacity of the cumulatives sharing the index, for the bucket width
	// Node pos is task pos's StartMin entry, node n+pos its StartMax entry;
	// chain b is StartMin bucket b, chain nb+b StartMax bucket b. head[h] is
	// the first node of chain h; chain[node] is the chain a node is in;
	// next and prev link a chain's nodes. -1 ends a chain and marks a node
	// that is in none.
	head  []int32
	chain []int32
	next  []int32
	prev  []int32
	// stale lists, once each (staleFl), the tasks to re-file.
	stale   []int32
	staleFl []bool
	// slab backs head, chain, next, prev and stale; isBuilt says build has
	// filed the current task list. Both outlive a Model.Reset.
	slab    []int32
	isBuilt bool
}

func (x *taskIndex) built() bool { return x.isBuilt }

// reset readies the index for a new task list, keeping its memory.
func (x *taskIndex) reset() {
	x.isBuilt = false
	x.capSum = 0
}

// build sizes the index for c's task list and files every task. The bucket
// span covers the releases and twice the time the list's work needs at the
// sharing cumulatives' combined capacity; keys past it (the latest starts
// of tasks whose deadlines are relaxed) share the last bucket.
func (x *taskIndex) build(m *Model, c *cumulative) {
	n := len(c.tasks)
	x.nb = max(1, n/4)
	x.slab = resized(x.slab, 2*x.nb+7*n)
	slab := x.slab
	for i := range slab {
		slab[i] = -1
	}
	x.head, slab = slab[:2*x.nb], slab[2*x.nb:]
	x.chain, x.next, x.prev, x.stale = slab[:2*n], slab[2*n:4*n], slab[4*n:6*n], slab[6*n:6*n]
	x.staleFl = cleared(x.staleFl, n)
	x.isBuilt = true
	x.t0 = math.MaxInt64
	var lastRelease, energy int64
	for pos, t := range c.tasks {
		x.t0 = min(x.t0, t.origMin)
		lastRelease = max(lastRelease, t.origMin)
		energy += t.Dur * max(c.demandAt(pos), 1)
	}
	span := lastRelease - x.t0 + 2*energy/max(x.capSum, 1) + c.dmax + 1
	x.width = max(1, (span+int64(x.nb)-1)/int64(x.nb))
	for pos := range c.tasks {
		x.place(m, c.tasks, pos)
	}
}

// bucket returns the bucket of key k.
func (x *taskIndex) bucket(k int64) int32 {
	if k <= x.t0 {
		return 0
	}
	return int32(min((k-x.t0)/x.width, int64(x.nb-1)))
}

// move puts node into chain h (-1: into none).
func (x *taskIndex) move(node, h int32) {
	old := x.chain[node]
	if old == h {
		return
	}
	if old >= 0 {
		p, nx := x.prev[node], x.next[node]
		if p >= 0 {
			x.next[p] = nx
		} else {
			x.head[old] = nx
		}
		if nx >= 0 {
			x.prev[nx] = p
		}
	}
	x.chain[node] = h
	if h >= 0 {
		first := x.head[h]
		x.next[node], x.prev[node] = first, -1
		if first >= 0 {
			x.prev[first] = node
		}
		x.head[h] = node
	}
}

// note marks tasks[pos] for re-filing; the engine calls it, through
// noteChange, whenever the task's variables change.
func (x *taskIndex) note(pos int) {
	if x.built() && !x.staleFl[pos] {
		x.staleFl[pos] = true
		x.stale = append(x.stale, int32(pos))
	}
}

// refresh builds the index for c's task list, or re-files the tasks noted
// since the last query.
func (x *taskIndex) refresh(m *Model, c *cumulative) {
	if !x.built() {
		x.build(m, c)
		return
	}
	for _, pos := range x.stale {
		x.staleFl[pos] = false
		x.place(m, c.tasks, int(pos))
	}
	x.stale = x.stale[:0]
}

// place files tasks[pos] under its current bounds, or takes it out of the
// index once it is settled.
func (x *taskIndex) place(m *Model, tasks []*Interval, pos int) {
	t := tasks[pos]
	hMin, hMax := int32(-1), int32(-1)
	if !m.Fixed(t) || t.resVar != nil && m.ResDomainSize(t.resVar) > 1 {
		hMin, hMax = x.bucket(m.StartMin(t)), int32(x.nb)+x.bucket(m.StartMax(t))
	}
	x.move(int32(pos), hMin)
	x.move(int32(len(tasks)+pos), hMax)
}

// blockRun returns the first maximal run [a, b) of touching blocking
// segments at or after segs[i], and the index just past it; ok is false
// when there is none.
func (c *cumulative) blockRun(i int) (a, b int64, next int, ok bool) {
	for i < len(c.segs) && !c.blocking(c.segs[i]) {
		i++
	}
	if i == len(c.segs) {
		return 0, 0, i, false
	}
	a, b = c.segs[i].from, c.segs[i].to
	for i++; i < len(c.segs) && c.segs[i].from == b && c.blocking(c.segs[i]); i++ {
		b = c.segs[i].to
	}
	return a, b, i, true
}

// Which tasks collect accepts from the index.
const (
	collectLive  = iota // by StartMin: undecided on this resource, or on it and not fixed
	collectMaybe        // by StartMin: undecided on this resource
	collectYes          // by StartMax: on this resource and not fixed
)

// collect appends to out the tasks of the given kind whose window of their
// duration here, at the key (StartMin, or StartMax for collectYes),
// overlaps [a, b).
func (c *cumulative) collect(m *Model, out []int32, kind int, a, b int64) []int32 {
	x := c.idx
	n := int32(len(c.tasks))
	h, off := 0, int32(0)
	if kind == collectYes {
		h, off = x.nb, n
	}
	for bk := x.bucket(a - c.dmax + 1); bk <= x.bucket(b-1); bk++ {
		for node := x.head[int32(h)+bk]; node >= 0; node = x.next[node] {
			c.sweepWork++
			pos := node - off
			t := c.tasks[pos]
			k := m.StartMin(t)
			if kind == collectYes {
				k = m.StartMax(t)
			}
			if k >= b || k+c.durOf(t) <= a {
				continue
			}
			switch c.onRes(m, t) {
			case onResMaybe:
				if kind == collectYes {
					continue
				}
			case onResYes:
				if kind == collectMaybe || m.Fixed(t) {
					continue
				}
			default:
				continue
			}
			out = append(out, pos)
		}
	}
	return out
}

// sortedSet orders candidate positions ascending, once each.
func sortedSet(out []int32) []int32 {
	slices.Sort(out)
	return slices.Compact(out)
}

// reachable returns, ascending, the tasks a full pass can prune: those
// whose window at StartMin, or (on this resource) at StartMax, overlaps a
// blocking segment.
func (c *cumulative) reachable(m *Model, out []int32) []int32 {
	a, b, i, ok := c.blockRun(0)
	if !ok {
		return out
	}
	c.idx.refresh(m, c)
	for ; ok; a, b, i, ok = c.blockRun(i) {
		out = c.collect(m, out, collectLive, a, b)
		out = c.collect(m, out, collectYes, a, b)
	}
	return sortedSet(out)
}

// dirtyCandidates returns, ascending, a superset of the tasks the dirty
// sweep over [dLo, dHi) can prune: the tasks on this resource whose
// [StartMax, EndMax) touches the region, and the tasks undecided on this
// resource whose window at StartMin overlaps a blocking segment that
// starts before the region's reach.
func (c *cumulative) dirtyCandidates(m *Model, dLo, dHi int64, out []int32) []int32 {
	c.idx.refresh(m, c)
	// For a task on this resource, EndMax is StartMax plus at most its
	// duration here.
	out = c.collect(m, out, collectYes, dLo, dHi)
	if c.resIndex >= 0 {
		for a, b, i, ok := c.blockRun(0); ok && a < dHi+c.dmax; a, b, i, ok = c.blockRun(i) {
			out = c.collect(m, out, collectMaybe, a, b)
		}
	}
	return sortedSet(out)
}
