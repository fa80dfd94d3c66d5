package cp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Interval is a task activity with a fixed duration whose start time is a
// decision variable — the a_t variable of the paper's CP formulation. The
// solver prunes the inclusive start-time window [StartMin, StartMax].
type Interval struct {
	Name   string
	Dur    int64 // execution time e_t, in model time units (ms)
	Demand int64 // resource capacity requirement q_t (1 in the paper)

	// Due is the deadline of the owning job, used by the EDF and
	// least-laxity search orderings. Not a constraint by itself.
	Due int64
	// JobKey identifies the owning job for the job-id search ordering.
	JobKey int

	id      int
	base    int32 // store cells: +0 startMin, +1 startMax, +2 postponed
	origMin int64
	origMax int64
	resVar  *ResVar // non-nil when matchmaking is part of the model

	// durs, when not empty, is the per-resource duration table of a
	// heterogeneous model: running on resource r takes durs[r] time units.
	// Empty keeps the uniform fast path where Dur holds for every resource.
	// The table's modes live in its capacity past len (see modes), so the
	// Interval stays one slice header wide; the capacity is cut to exactly
	// the modes, also when Reset hands the table to a later build.
	durs []int64
}

// modes returns the duration table's distinct durations in ascending order,
// each followed by the resvar-word mask of the resources that run at it:
// mode i is modes[i*stride] with mask modes[i*stride+1 : (i+1)*stride],
// stride = 1 + resVar.words.
func (iv *Interval) modes() []int64 { return iv.durs[len(iv.durs):cap(iv.durs)] }

// Durations returns the per-resource duration table, or nil for a uniform
// interval.
func (iv *Interval) Durations() []int64 {
	if len(iv.durs) == 0 {
		return nil
	}
	return iv.durs[:len(iv.durs):len(iv.durs)]
}

// ID returns the interval's dense model index.
func (iv *Interval) ID() int { return iv.id }

// ResVar returns the matchmaking variable attached to this interval, or nil
// when the interval is pre-assigned (combined-resource mode or frozen task).
func (iv *Interval) ResVar() *ResVar { return iv.resVar }

// Bool is a 0/1 decision variable; the paper's N_j lateness indicators.
type Bool struct {
	Name string
	id   int
	base int32 // +0 min, +1 max
	// jobKey is the JobKey of the job whose lateness this bool reifies (set
	// by AddLateness), for the solver's squeaky-wheel boost.
	jobKey int
}

// ID returns the bool's dense model index.
func (b *Bool) ID() int { return b.id }

// ResVar is a finite-domain variable ranging over resource indices
// [0, NumRes) — the x_tr matchmaking variables, represented as a bitset.
type ResVar struct {
	NumRes int
	id     int
	base   int32 // bitset words
	words  int
	iv     *Interval
}

// ID returns the resvar's dense model index.
func (rv *ResVar) ID() int { return rv.id }

// Model is a constraint program under construction. Build it at the root
// level (variables, bounds, constraints), then hand it to a Solver and solve
// it once. To solve another problem, Reset the model and build that one:
// MRCP-RM regenerates its whole model on every invocation, as the paper
// regenerates its OPL model, and Reset lets it do so in the memory the
// earlier builds grew instead of fresh memory. A Result owns its slices, so
// it stays valid across a Reset; the model's variables and handles do not.
type Model struct {
	store     *Store
	horizon   int64
	intervals []*Interval
	bools     []*Bool
	resvars   []*ResVar
	props     []propagator
	cumuls    []*cumulative
	families  []*family

	// watchers[kind][varID] lists the propagators to wake on a change.
	ivWatch   [][]watch
	boolWatch [][]int
	rvWatch   [][]watch

	sumLE    *sumLE
	objBools []*Bool

	// ttEvents is the cumulatives' scratch for deriving their profiles.
	ttEvents []ttEvent

	// What Reset keeps besides the slices above: the propagators and time
	// indexes of earlier builds, reused by index, and the search state a
	// Solver takes over — the engine's buffers, the candidate heap,
	// pickResource's domain, fit and family-position buffers and
	// placementStart's timetable buffer — and VerifySolution's event list.
	barriers  []*phaseBarrier
	lates     []*lateness
	sum       sumLE
	idxs      []*taskIndex
	eng       engine
	cand      candHeap
	resBuf    []int
	fitBuf    []int64
	famPos    []int32
	onBuf     []onTimetable
	verifyEvs []verifyEvent
}

// watch is one entry of an interval's or resvar's watch list: the
// propagator to wake and the position of the (resvar's) interval among the
// propagator's variables, so a wake needs no lookup: its index in a
// cumulative's task list, and the watch positions phaseBarrier.noteChange
// and lateness.noteChange describe. A negative prop is a family entry:
// prop ^f stands for every member of families[f], pos for the interval's
// index in the family's task list. Lists are in posting order, so ascending
// in prop, a family entry sitting where its first member was posted; the
// cumulative and family entries of ivWatch[id] are also the solver's list
// of the timetables interval id sits on.
type watch struct {
	prop int32
	pos  int32
}

// NewModel creates an empty model. horizon is the exclusive upper bound on
// any task end time; every interval's start window defaults to
// [0, horizon-dur].
func NewModel(horizon int64) *Model {
	m := new(Model)
	m.Reset(horizon)
	return m
}

// Reset empties the model for a new build with the given horizon, as
// NewModel would create it, but keeps the memory earlier builds grew: the
// variable and constraint structs, the watch lists, the store and the search
// state are reused by index, so a build no larger than an earlier one
// allocates next to nothing. Every variable, handle and slice the model
// returned before the Reset is invalid after it; a Result is not.
func (m *Model) Reset(horizon int64) {
	if horizon <= 0 {
		panic("cp: model horizon must be positive")
	}
	if m.store == nil {
		m.store = NewStore()
	}
	m.store.reset()
	m.horizon = horizon
	m.intervals = m.intervals[:0]
	m.bools = m.bools[:0]
	m.resvars = m.resvars[:0]
	m.props = m.props[:0]
	m.cumuls = m.cumuls[:0]
	m.families = m.families[:0]
	m.ivWatch = m.ivWatch[:0]
	m.boolWatch = m.boolWatch[:0]
	m.rvWatch = m.rvWatch[:0]
	m.sumLE = nil
	m.objBools = nil
	m.barriers = m.barriers[:0]
	m.lates = m.lates[:0]
	m.idxs = m.idxs[:0]
}

// extend lengthens s by one element and returns the struct at the new
// index: the one an earlier build left in s's backing array, or a new one.
// The caller sets every field.
func extend[T any](s []*T) ([]*T, *T) {
	n := len(s)
	if n == cap(s) {
		s = append(s, new(T))
	} else if s = s[:n+1]; s[n] == nil {
		s[n] = new(T)
	}
	return s, s[n]
}

// extendList lengthens s by one empty list, reusing the backing array of
// the list an earlier build left at that index.
func extendList[T any](s [][]T) [][]T {
	n := len(s)
	if n == cap(s) {
		return append(s, nil)
	}
	s = s[:n+1]
	s[n] = s[n][:0]
	return s
}

// resized returns a slice of length n, s's backing array when it is large
// enough; the contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// cleared is resized with every element zero.
func cleared[T any](s []T, n int) []T {
	s = resized(s, n)
	clear(s)
	return s
}

// emptied returns an empty slice with room for n elements, s's backing
// array when it is large enough.
func emptied[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Intervals returns all intervals in creation order.
func (m *Model) Intervals() []*Interval { return m.intervals[:len(m.intervals):len(m.intervals)] }

// Bools returns all boolean variables in creation order.
func (m *Model) Bools() []*Bool { return m.bools[:len(m.bools):len(m.bools)] }

// NewInterval adds a task interval with the given duration and demand 1.
// Its start window is [0, horizon-dur].
func (m *Model) NewInterval(name string, dur int64) *Interval {
	if dur <= 0 {
		panic(fmt.Sprintf("cp: interval %q duration %d must be positive", name, dur))
	}
	if dur > m.horizon {
		panic(fmt.Sprintf("cp: interval %q duration %d exceeds horizon %d", name, dur, m.horizon))
	}
	id := len(m.intervals)
	var iv *Interval
	m.intervals, iv = extend(m.intervals)
	*iv = Interval{
		Name:    name,
		Dur:     dur,
		Demand:  1,
		Due:     math.MaxInt64,
		id:      id,
		origMin: 0,
		origMax: m.horizon - dur,
		durs:    iv.durs[:0],
	}
	iv.base = m.store.alloc(int32(id), iv.origMin, iv.origMax, 0)
	m.ivWatch = extendList(m.ivWatch)
	return iv
}

// SetResDurations attaches a per-resource duration table to an interval
// with a resvar: running on resource r takes durs[r] time units. Call it
// after NewResVar and before posting constraints over the interval. Every
// entry must be positive and no larger than the duration the interval was
// created with (create heterogeneous intervals with their slowest-resource
// duration so the horizon bound stays valid for every mode). The interval
// keeps a copy of durs, next to the table's modes.
func (m *Model) SetResDurations(iv *Interval, durs []int64) {
	if iv.resVar == nil {
		panic(fmt.Sprintf("cp: interval %q needs a resvar before durations", iv.Name))
	}
	if len(durs) != iv.resVar.NumRes {
		panic(fmt.Sprintf("cp: interval %q duration table has %d entries for %d resources",
			iv.Name, len(durs), iv.resVar.NumRes))
	}
	var few [8]int64 // a cluster has a handful of speed classes
	distinct := few[:0]
	for _, d := range durs {
		if i, found := slices.BinarySearch(distinct, d); !found {
			distinct = slices.Insert(distinct, i, d)
		}
	}
	lo, hi := distinct[0], distinct[len(distinct)-1]
	if lo <= 0 {
		panic(fmt.Sprintf("cp: interval %q has non-positive mode duration %d", iv.Name, lo))
	}
	if hi > iv.Dur {
		panic(fmt.Sprintf("cp: interval %q mode duration %d exceeds nominal duration %d",
			iv.Name, hi, iv.Dur))
	}
	if lo == hi && hi == iv.Dur {
		return // a constant table is the uniform case; keep the fast path
	}
	n, stride := len(durs), 1+iv.resVar.words
	size := n + len(distinct)*stride
	table := cleared(iv.durs, size)
	copy(table, durs)
	modes := table[n:]
	for i, d := range distinct {
		modes[i*stride] = d
	}
	for r, d := range durs {
		i, _ := slices.BinarySearch(distinct, d)
		modes[i*stride+1+r/64] |= 1 << (r % 64)
	}
	iv.durs = table[:n:size]
}

// SetStartBounds narrows an interval's start window at build time.
func (m *Model) SetStartBounds(iv *Interval, min, max int64) {
	if min > max {
		panic(fmt.Sprintf("cp: interval %q start bounds [%d,%d] empty", iv.Name, min, max))
	}
	if min < 0 || max > m.horizon-iv.Dur {
		panic(fmt.Sprintf("cp: interval %q start bounds [%d,%d] outside [0,%d]",
			iv.Name, min, max, m.horizon-iv.Dur))
	}
	iv.origMin, iv.origMax = min, max
	m.store.set(iv.base+0, min)
	m.store.set(iv.base+1, max)
}

// FixStart pins an interval's start at build time; used for tasks that have
// already started executing (Table 2, line 11).
func (m *Model) FixStart(iv *Interval, start int64) {
	m.SetStartBounds(iv, start, start)
}

// StartMin returns the current lower bound of the interval's start.
func (m *Model) StartMin(iv *Interval) int64 { return m.store.get(iv.base + 0) }

// StartMax returns the current upper bound of the interval's start.
func (m *Model) StartMax(iv *Interval) int64 { return m.store.get(iv.base + 1) }

// DurMin returns the smallest duration the interval can still take: its
// uniform duration, or the fastest mode with a resource left in the
// resvar's domain. It costs a word test per mode, not a probe per resource.
func (m *Model) DurMin(iv *Interval) int64 {
	if len(iv.durs) == 0 {
		return iv.Dur
	}
	rv, modes := iv.resVar, iv.modes()
	stride := 1 + rv.words
	for i := 0; i < len(modes); i += stride {
		if m.anyAllowed(rv, modes[i+1:i+stride]) {
			return modes[i]
		}
	}
	return modes[0] // empty domain; the search is about to fail anyway
}

// DurMax returns the largest duration the interval can still take.
func (m *Model) DurMax(iv *Interval) int64 {
	if len(iv.durs) == 0 {
		return iv.Dur
	}
	rv, modes := iv.resVar, iv.modes()
	stride := 1 + rv.words
	for i := len(modes) - stride; i >= 0; i -= stride {
		if m.anyAllowed(rv, modes[i+1:i+stride]) {
			return modes[i]
		}
	}
	return modes[len(modes)-stride]
}

// anyAllowed reports whether any resource of a resvar-word mask is still in
// rv's domain.
func (m *Model) anyAllowed(rv *ResVar, mask []int64) bool {
	for w, word := range mask {
		if m.store.get(rv.base+int32(w))&word != 0 {
			return true
		}
	}
	return false
}

// DurOn returns the interval's duration on resource r.
func (iv *Interval) DurOn(r int) int64 {
	if r < 0 || r >= len(iv.durs) {
		return iv.Dur
	}
	return iv.durs[r]
}

// EndMin returns the current lower bound of the interval's end.
func (m *Model) EndMin(iv *Interval) int64 { return m.StartMin(iv) + m.DurMin(iv) }

// EndMax returns the current upper bound of the interval's end.
func (m *Model) EndMax(iv *Interval) int64 { return m.StartMax(iv) + m.DurMax(iv) }

// Fixed reports whether the interval's start is decided.
func (m *Model) Fixed(iv *Interval) bool { return m.StartMin(iv) == m.StartMax(iv) }

func (m *Model) postponed(iv *Interval) bool { return m.store.get(iv.base+2) != 0 }

// NewBool adds a 0/1 variable.
func (m *Model) NewBool(name string) *Bool {
	id := len(m.bools)
	var b *Bool
	m.bools, b = extend(m.bools)
	*b = Bool{Name: name, id: id, base: m.store.alloc(-1, 0, 1)}
	m.boolWatch = extendList(m.boolWatch)
	return b
}

// BoolMin returns the current lower bound of the bool (1 means fixed true).
func (m *Model) BoolMin(b *Bool) int64 { return m.store.get(b.base + 0) }

// BoolMax returns the current upper bound of the bool (0 means fixed false).
func (m *Model) BoolMax(b *Bool) int64 { return m.store.get(b.base + 1) }

// BoolFixed reports whether the bool is decided.
func (m *Model) BoolFixed(b *Bool) bool { return m.BoolMin(b) == m.BoolMax(b) }

// NewResVar attaches a matchmaking variable over numRes resources to the
// interval. Initially every resource is allowed.
func (m *Model) NewResVar(iv *Interval, numRes int) *ResVar {
	if numRes <= 0 {
		panic("cp: resvar needs at least one resource")
	}
	if iv.resVar != nil {
		panic(fmt.Sprintf("cp: interval %q already has a resvar", iv.Name))
	}
	words := (numRes + 63) / 64
	id := len(m.resvars)
	var rv *ResVar
	m.resvars, rv = extend(m.resvars)
	*rv = ResVar{NumRes: numRes, id: id, base: int32(len(m.store.cells)), words: words, iv: iv}
	for w := 0; w < words; w++ {
		word := int64(-1) // all 64 resources of the word
		if left := numRes - w*64; left < 64 {
			word = 1<<left - 1
		}
		m.store.alloc(int32(iv.id), word)
	}
	m.rvWatch = extendList(m.rvWatch)
	iv.resVar = rv
	return rv
}

// ResAllowed reports whether resource r is still in the domain.
func (m *Model) ResAllowed(rv *ResVar, r int) bool {
	if r < 0 || r >= rv.NumRes {
		return false
	}
	return m.store.get(rv.base+int32(r/64))&(1<<(r%64)) != 0
}

// ResDomainSize returns the number of resources still allowed.
func (m *Model) ResDomainSize(rv *ResVar) int {
	n := 0
	for w := 0; w < rv.words; w++ {
		n += bits.OnesCount64(uint64(m.store.get(rv.base + int32(w))))
	}
	return n
}

// ResFixedValue returns the assigned resource if the domain is a singleton,
// else -1.
func (m *Model) ResFixedValue(rv *ResVar) int {
	found := -1
	for w := 0; w < rv.words; w++ {
		word := uint64(m.store.get(rv.base + int32(w)))
		for word != 0 {
			r := w*64 + bits.TrailingZeros64(word)
			if found >= 0 {
				return -1
			}
			found = r
			word &= word - 1
		}
	}
	return found
}

// ResDomain returns the allowed resources in increasing order.
func (m *Model) ResDomain(rv *ResVar) []int {
	return m.AppendResDomain(rv, nil)
}

// AppendResDomain appends the allowed resources in increasing order to buf
// and returns it, reusing buf's backing storage — the allocation-free
// domain iteration for the search hot path.
func (m *Model) AppendResDomain(rv *ResVar, buf []int) []int {
	for w := 0; w < rv.words; w++ {
		word := uint64(m.store.get(rv.base + int32(w)))
		for word != 0 {
			buf = append(buf, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return buf
}

// FixRes pins a resvar at build time (frozen tasks keep their resource).
func (m *Model) FixRes(rv *ResVar, r int) {
	if r < 0 || r >= rv.NumRes {
		panic(fmt.Sprintf("cp: resource %d out of range for %q", r, rv.iv.Name+".res"))
	}
	for w := 0; w < rv.words; w++ {
		var word int64
		if w == r/64 {
			word = 1 << (r % 64)
		}
		m.store.set(rv.base+int32(w), word)
	}
}

// ForbidRes removes one resource from a resvar's domain at build time
// (tasks must avoid resources that are down). Emptying the domain is
// allowed here; the root propagation pass reports it as infeasible.
func (m *Model) ForbidRes(rv *ResVar, r int) {
	if r < 0 || r >= rv.NumRes {
		panic(fmt.Sprintf("cp: resource %d out of range for %q", r, rv.iv.Name+".res"))
	}
	w := rv.base + int32(r/64)
	m.store.set(w, m.store.get(w)&^(1<<(r%64)))
}

// addProp registers a propagator and returns its index.
func (m *Model) addProp(p propagator) int {
	m.props = append(m.props, p)
	return len(m.props) - 1
}

// watchInterval wakes prop on a change of iv's bounds; pos is iv's watch
// position in prop.
func (m *Model) watchInterval(iv *Interval, prop, pos int) {
	m.ivWatch[iv.id] = append(m.ivWatch[iv.id], watch{int32(prop), int32(pos)})
}

func (m *Model) watchBool(b *Bool, prop int) {
	m.boolWatch[b.id] = append(m.boolWatch[b.id], prop)
}

// watchResVar is watchInterval for a change of rv's domain.
func (m *Model) watchResVar(rv *ResVar, prop, pos int) {
	m.rvWatch[rv.id] = append(m.rvWatch[rv.id], watch{int32(prop), int32(pos)})
}

// AddPhaseBarrier posts Constraint 3 of the formulation for one job: every
// succ (reduce task) may start only after every pred (map task) has ended.
func (m *Model) AddPhaseBarrier(preds, succs []*Interval) {
	if len(preds) == 0 || len(succs) == 0 {
		return
	}
	var p *phaseBarrier
	m.barriers, p = extend(m.barriers)
	*p = phaseBarrier{preds: preds, succs: succs, pendLatest: math.MaxInt64}
	idx := m.addProp(p)
	np, ns := len(preds), len(succs)
	for i, pr := range preds {
		m.watchInterval(pr, idx, i)
		// A duration-table pred's EndMin moves when its resvar narrows.
		if len(pr.durs) > 0 {
			m.watchResVar(pr.resVar, idx, np+ns+i)
		}
	}
	for i, su := range succs {
		m.watchInterval(su, idx, np+i)
	}
}

// AddLateness posts Constraint 4: late is forced to 1 when the job's last
// terminal task must finish after the deadline; conversely, deciding
// late = 0 enforces the deadline on every terminal task.
func (m *Model) AddLateness(terminals []*Interval, deadline int64, late *Bool) {
	if len(terminals) == 0 {
		panic("cp: lateness constraint needs at least one terminal task")
	}
	var p *lateness
	m.lates, p = extend(m.lates)
	*p = lateness{terminals: terminals, deadline: deadline, late: late}
	late.jobKey = terminals[0].JobKey
	idx := m.addProp(p)
	for i, t := range terminals {
		m.watchInterval(t, idx, i)
		// A duration-table terminal's end bounds move when its resvar narrows.
		if len(t.durs) > 0 {
			m.watchResVar(t.resVar, idx, len(terminals)+i)
		}
	}
	m.watchBool(late, idx)
}

// AddSumLE posts Σ bools <= bound, the branch-and-bound cut on the number of
// late jobs. At most one such constraint may be posted per model; the solver
// tightens the bound between branch-and-bound rounds.
func (m *Model) AddSumLE(bools []*Bool, bound int) *SumLEHandle {
	return &SumLEHandle{p: m.addSumLE(bools, bound)}
}

// addSumLE is AddSumLE without the handle.
func (m *Model) addSumLE(bools []*Bool, bound int) *sumLE {
	if m.sumLE != nil {
		panic("cp: model already has a SumLE constraint")
	}
	p := &m.sum
	*p = sumLE{bools: bools, bound: bound}
	idx := m.addProp(p)
	for _, b := range bools {
		m.watchBool(b, idx)
	}
	m.sumLE = p
	return p
}

// SumLEHandle lets the solver tighten the late-job bound between rounds.
type SumLEHandle struct{ p *sumLE }

// SetBound replaces the bound. Valid at the root level only.
func (h *SumLEHandle) SetBound(b int) { h.p.bound = b }

// Bound returns the current bound.
func (h *SumLEHandle) Bound() int { return h.p.bound }

// AddCumulative posts Constraints 5/6 for one resource: at every instant the
// total demand of tasks executing on it is at most capacity. Tasks whose
// resvar is nil (or which have no resvar) are always on this resource;
// tasks with a resvar contribute only while this resource index remains in
// their domain. resIndex identifies this resource in the resvar domains;
// pass -1 for a combined resource that no resvar refers to.
func (m *Model) AddCumulative(name string, resIndex int, capacity int64, tasks []*Interval) *Cumulative {
	return m.AddCumulativeDemands(name, resIndex, capacity, tasks, nil)
}

// AddCumulativeDemands is AddCumulative with an explicit per-task demand
// vector: task tasks[i] consumes demands[i] units of this dimension while
// executing. It is how parallel resource dimensions (e.g. memory next to
// cpu slots) are posted — one cumulative per (resource, dimension), each
// with its own demand vector. A nil demands falls back to each task's
// Demand field.
func (m *Model) AddCumulativeDemands(name string, resIndex int, capacity int64, tasks []*Interval, demands []int64) *Cumulative {
	if capacity <= 0 {
		panic(fmt.Sprintf("cp: cumulative %q capacity %d must be positive", name, capacity))
	}
	if demands != nil && len(demands) != len(tasks) {
		panic(fmt.Sprintf("cp: cumulative %q has %d demands for %d tasks", name, len(demands), len(tasks)))
	}
	var shared *taskIndex
	for _, o := range m.cumuls {
		if len(tasks) > 0 && sameList(o.tasks, tasks) {
			shared = o.idx // the same task list: share its time index
			break
		}
	}
	if shared == nil {
		m.idxs, shared = extend(m.idxs)
		shared.reset()
	}
	var c *cumulative
	m.cumuls, c = extend(m.cumuls)
	c.reset(name, resIndex, capacity, tasks, demands)
	c.idx = shared
	c.idx.capSum += capacity
	idx := m.addProp(c)
	c.prop = idx
	if resIndex >= 0 && len(tasks) > 0 {
		// A resource's timetable joins its family, whose one watch entry
		// per task covers every member.
		f, isNew := m.familyFor(tasks, demands, resIndex)
		f.add(c)
		if isNew {
			for pos, t := range tasks {
				m.watchInterval(t, ^f.id, pos)
				if t.resVar != nil {
					m.watchResVar(t.resVar, ^f.id, pos)
				}
			}
		}
		return &c.handle
	}
	for pos, t := range tasks {
		m.watchInterval(t, idx, pos)
		if t.resVar != nil && len(t.durs) > 0 {
			m.watchResVar(t.resVar, idx, pos)
		}
	}
	return &c.handle
}

// Cumulative is a public handle over a posted cumulative constraint.
type Cumulative struct{ c *cumulative }

// Name returns the constraint's resource name.
func (c *Cumulative) Name() string { return c.c.name }
