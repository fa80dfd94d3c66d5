// Package slo is the SLA observability plane's stateful half: per-job trace
// timelines, deadline-miss attribution, and a sliding-window miss-budget
// burn monitor. A Monitor attaches to a simulation as a lifecycle observer
// (sim.Simulator.AddObserver) and, for the MRCP-RM
// policy, to the manager's reschedule observer; the service engine feeds it
// the admission-side events the simulator cannot see. Everything it records
// is stamped with simulated time, so a deterministic run produces a
// deterministic trace and attribution stream.
package slo

import (
	"sync"

	"mrcprm/internal/obs"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// Attribution classes: the dominant cause assigned to each job that misses
// its SLA (finishes late or is abandoned). Exactly one class per miss.
const (
	// ClassInfeasible marks jobs already infeasible when admitted: their
	// SLA lower bound exceeded the deadline, but intake accepted them
	// anyway (admission control disabled or overridden).
	ClassInfeasible = "infeasible_at_admission"
	// ClassFaultDelay marks jobs that suffered task failures, outage
	// kills, or straggler slowdowns before missing.
	ClassFaultDelay = "fault_delay"
	// ClassSolverDegraded marks jobs whose outstanding window overlapped
	// at least one solver-fallback round (greedy EDF degradation).
	ClassSolverDegraded = "solver_degraded"
	// ClassQueuedBacklog is the default: nothing went wrong with the job
	// itself — it queued behind too much other work.
	ClassQueuedBacklog = "queued_backlog"
)

// Classes lists every attribution class in reporting order.
func Classes() []string {
	return []string{ClassInfeasible, ClassFaultDelay, ClassSolverDegraded, ClassQueuedBacklog}
}

// CounterMiss is the obs counter-family prefix: one counter per class,
// e.g. "slo_miss_fault_delay".
const CounterMiss = "slo_miss_"

// TraceEvent is one entry of a job's timeline.
type TraceEvent struct {
	SimMS  int64  `json:"t"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
	// Count > 1 means consecutive identical events (same instant, kind,
	// and detail) were coalesced into this entry.
	Count int `json:"count,omitempty"`
}

// Trace event kinds, in rough lifecycle order.
const (
	KindSubmitted = "submitted"
	KindAdmitted  = "admitted"
	KindShed      = "shed"
	KindPlaced    = "placed"
	KindReplanned = "replanned"
	KindTaskFail  = "task_fail"
	KindTaskKill  = "task_kill"
	KindTaskRetry = "task_retry"
	KindStraggle  = "task_straggle"
	KindCompleted = "completed"
	KindAbandoned = "abandoned"
)

// Config tunes a Monitor. Zero values select the defaults.
type Config struct {
	// MissBudget is the tolerated fraction of SLA misses among finishes
	// inside the window. Default 0.1.
	MissBudget float64
	// WindowMS is the sliding-window length in simulated ms. Default
	// 60000.
	WindowMS int64
	// MinSample is the minimum number of finishes inside the window
	// before the burn alarm may trip (guards cold starts). Default 20.
	MinSample int
	// TraceCap bounds each job's timeline ring; older events are dropped
	// (and counted) beyond it. Default 64.
	TraceCap int
	// Telemetry receives slo_attribution events and the per-class miss
	// counter family; nil records traces and burn state only.
	Telemetry *obs.Telemetry
}

func (c Config) withDefaults() Config {
	if c.MissBudget <= 0 {
		c.MissBudget = 0.1
	}
	if c.WindowMS <= 0 {
		c.WindowMS = 60_000
	}
	if c.MinSample <= 0 {
		c.MinSample = 20
	}
	if c.TraceCap <= 0 {
		c.TraceCap = 64
	}
	return c
}

// Attribution is one finished miss with its assigned class.
type Attribution struct {
	JobID      int    `json:"job"`
	Class      string `json:"class"`
	Outcome    string `json:"outcome"` // "late" or "abandoned"
	LatenessMS int64  `json:"latenessMS"`
}

// Totals is the reconciliation view of everything attributed so far.
type Totals struct {
	// LateByClass counts late completions per class; its values sum to
	// the simulator's Metrics.LateJobs.
	LateByClass map[string]int64 `json:"lateByClass"`
	// AbandonedByClass counts abandonments per class; its values sum to
	// Metrics.JobsAbandoned.
	AbandonedByClass map[string]int64 `json:"abandonedByClass"`
}

// BurnInfo is a point-in-time view of the miss-budget burn monitor.
type BurnInfo struct {
	WindowMS   int64   `json:"windowMS"`
	MissBudget float64 `json:"missBudget"`
	MinSample  int     `json:"minSample"`
	// Finished and Missed count job finishes (completions plus
	// abandonments) and SLA misses inside the window ending now.
	Finished int     `json:"finished"`
	Missed   int     `json:"missed"`
	MissRate float64 `json:"missRate"`
	// BurnRate is MissRate/MissBudget: 1.0 means missing exactly at
	// budget; >1 means burning faster than the budget allows.
	BurnRate float64 `json:"burnRate"`
	// Burning is true when the window holds at least MinSample finishes
	// and the miss rate exceeds the budget.
	Burning bool `json:"burning"`
}

type jobState struct {
	id          int
	ring        []TraceEvent
	dropped     int
	infeasible  bool
	faultEvents int
	// fallbackBase is the monitor-wide fallback-round count when the job
	// was first seen; a higher count at finish means the job's window
	// overlapped solver degradation.
	fallbackBase int64
	placedOnce   bool
	failedTasks  map[string]bool
	done         bool
}

type finish struct {
	at   int64
	miss bool
}

// Monitor accumulates traces, attributions, and burn state. All methods are
// safe for concurrent use; a nil *Monitor is inert on every method it
// defines, so callers thread it like a telemetry handle (the no-op events
// it inherits from sim.NopObserver need a live one: attach only that).
type Monitor struct {
	sim.NopObserver
	cfg Config

	mu        sync.Mutex
	jobs      map[int]*jobState
	fallbacks int64
	lateBy    map[string]int64
	abandBy   map[string]int64
	attrs     []Attribution
	window    []finish // finish instants, ascending
	lastNow   int64
}

// NewMonitor creates a monitor with the given configuration.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{
		cfg:     cfg.withDefaults(),
		jobs:    make(map[int]*jobState),
		lateBy:  make(map[string]int64),
		abandBy: make(map[string]int64),
	}
}

// state returns the job's record, creating it on first sight. Lazy creation
// lets the monitor attach to a plain simulation (no engine submissions):
// the first observer event adopts the job mid-flight.
func (m *Monitor) state(id int) *jobState {
	js := m.jobs[id]
	if js == nil {
		js = &jobState{id: id, fallbackBase: m.fallbacks}
		m.jobs[id] = js
	}
	return js
}

// record appends one trace event to the job's ring, coalescing consecutive
// identical events and dropping the oldest entry past the cap.
func (m *Monitor) record(js *jobState, at int64, kind, detail string) {
	if n := len(js.ring); n > 0 {
		last := &js.ring[n-1]
		if last.SimMS == at && last.Kind == kind && last.Detail == detail {
			if last.Count == 0 {
				last.Count = 1
			}
			last.Count++
			return
		}
	}
	if len(js.ring) >= m.cfg.TraceCap {
		copy(js.ring, js.ring[1:])
		js.ring = js.ring[:len(js.ring)-1]
		js.dropped++
	}
	js.ring = append(js.ring, TraceEvent{SimMS: at, Kind: kind, Detail: detail})
}

// --- Service-side (admission) events ---

// JobSubmitted records an intake submission. infeasible marks jobs whose
// SLA lower bound already exceeded the deadline at admission time.
func (m *Monitor) JobSubmitted(now int64, id int, infeasible bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	js := m.state(id)
	m.record(js, now, KindSubmitted, "")
	detail := ""
	if infeasible {
		js.infeasible = true
		detail = "infeasible"
	}
	m.record(js, now, KindAdmitted, detail)
}

// JobShed records a submission rejected at intake (admission check or
// backpressure); the reason lands in the trace so rejected IDs still
// explain themselves.
func (m *Monitor) JobShed(now int64, id int, reason string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	js := m.state(id)
	m.record(js, now, KindSubmitted, "")
	m.record(js, now, KindShed, reason)
	js.done = true
}

// OnReschedule is wired to core.Manager.SetRescheduleObserver: fallback
// rounds open a solver-degradation window covering every outstanding job.
func (m *Monitor) OnReschedule(now int64, reason string, fallback bool) {
	if m == nil || !fallback {
		return
	}
	m.mu.Lock()
	m.fallbacks++
	m.mu.Unlock()
}

// --- sim.Observer ---
//
// Task starts and finishes leave no trace entry (start instants are
// recoverable from the placed events and would crowd the ring), nor do
// resource outages, which are cluster-level.

// TaskScheduled implements sim.Observer.
func (m *Monitor) TaskScheduled(now int64, t *workload.Task, j *workload.Job, res int, start int64, replan bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	js := m.state(j.ID)
	switch {
	case js.failedTasks[t.ID]:
		delete(js.failedTasks, t.ID)
		m.record(js, now, KindTaskRetry, t.ID)
	case replan && js.placedOnce:
		m.record(js, now, KindReplanned, "")
	default:
		js.placedOnce = true
		m.record(js, now, KindPlaced, "")
	}
}

// TaskFailed implements sim.Observer.
func (m *Monitor) TaskFailed(now int64, t *workload.Task, j *workload.Job, res int) {
	m.taskFault(now, t, j, KindTaskFail)
}

// TaskKilled implements sim.Observer.
func (m *Monitor) TaskKilled(now int64, t *workload.Task, j *workload.Job, res int) {
	m.taskFault(now, t, j, KindTaskKill)
}

func (m *Monitor) taskFault(now int64, t *workload.Task, j *workload.Job, kind string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	js := m.state(j.ID)
	js.faultEvents++
	if js.failedTasks == nil {
		js.failedTasks = make(map[string]bool)
	}
	js.failedTasks[t.ID] = true
	m.record(js, now, kind, t.ID)
}

// TaskSlowdown implements sim.Observer.
func (m *Monitor) TaskSlowdown(now int64, t *workload.Task, j *workload.Job, res int, effExec, nominal int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	js := m.state(j.ID)
	js.faultEvents++
	m.record(js, now, KindStraggle, t.ID)
}

// JobCompleted implements sim.Observer: on-time completions close the
// trace; late ones are attributed and counted against the budget.
func (m *Monitor) JobCompleted(now int64, j *workload.Job, latenessMS int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	js := m.state(j.ID)
	js.done = true
	detail := "on_time"
	late := latenessMS > 0
	if late {
		detail = "late"
	}
	m.record(js, now, KindCompleted, detail)
	var attr Attribution
	if late {
		attr = Attribution{JobID: j.ID, Class: m.classify(js), Outcome: "late", LatenessMS: latenessMS}
		m.lateBy[attr.Class]++
		m.attrs = append(m.attrs, attr)
	}
	m.observeFinish(now, late)
	m.mu.Unlock()
	if late {
		m.emitAttribution(now, attr, now-j.Arrival)
	}
}

// JobAbandoned implements sim.Observer: every abandonment is an SLA miss.
func (m *Monitor) JobAbandoned(now int64, j *workload.Job) {
	if m == nil {
		return
	}
	m.mu.Lock()
	js := m.state(j.ID)
	js.done = true
	m.record(js, now, KindAbandoned, "")
	attr := Attribution{JobID: j.ID, Class: m.classify(js), Outcome: "abandoned", LatenessMS: now - j.Deadline}
	m.abandBy[attr.Class]++
	m.attrs = append(m.attrs, attr)
	m.observeFinish(now, true)
	m.mu.Unlock()
	m.emitAttribution(now, attr, now-j.Arrival)
}

// classify picks the dominant miss cause. Priority: a job that was doomed
// at admission blames admission regardless of later noise; fault damage
// outranks solver degradation (it delays the job directly); solver
// degradation outranks backlog (the schedule quality, not the load, is
// what slipped); backlog is the residual explanation. Callers hold mu.
func (m *Monitor) classify(js *jobState) string {
	switch {
	case js.infeasible:
		return ClassInfeasible
	case js.faultEvents > 0:
		return ClassFaultDelay
	case m.fallbacks > js.fallbackBase:
		return ClassSolverDegraded
	}
	return ClassQueuedBacklog
}

func (m *Monitor) emitAttribution(now int64, a Attribution, e2eMS int64) {
	tel := m.cfg.Telemetry
	if !tel.Enabled() {
		return
	}
	tel.Emit(now, "obs", "slo_attribution",
		obs.Int("job", a.JobID),
		obs.Str("class", a.Class),
		obs.Str("outcome", a.Outcome),
		obs.I64("lateness_ms", a.LatenessMS),
		obs.I64("e2e_ms", e2eMS),
	)
	tel.Add(CounterMiss+a.Class, 1)
	tel.Add("slo_miss_total", 1)
}

// observeFinish appends to the burn window and prunes it. Callers hold mu.
func (m *Monitor) observeFinish(now int64, miss bool) {
	m.window = append(m.window, finish{at: now, miss: miss})
	m.pruneLocked(now)
}

func (m *Monitor) pruneLocked(now int64) {
	if now > m.lastNow {
		m.lastNow = now
	}
	cut := m.lastNow - m.cfg.WindowMS
	i := 0
	for i < len(m.window) && m.window[i].at <= cut {
		i++
	}
	if i > 0 {
		m.window = append(m.window[:0], m.window[i:]...)
	}
}

// Burn returns the burn-monitor view as of simulated time now (pass the
// latest known sim time; it never moves the window backwards). Safe on nil.
func (m *Monitor) Burn(now int64) BurnInfo {
	if m == nil {
		return BurnInfo{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pruneLocked(now)
	info := BurnInfo{
		WindowMS:   m.cfg.WindowMS,
		MissBudget: m.cfg.MissBudget,
		MinSample:  m.cfg.MinSample,
		Finished:   len(m.window),
	}
	for _, f := range m.window {
		if f.miss {
			info.Missed++
		}
	}
	if info.Finished > 0 {
		info.MissRate = float64(info.Missed) / float64(info.Finished)
		info.BurnRate = info.MissRate / info.MissBudget
	}
	info.Burning = info.Finished >= info.MinSample && info.MissRate > info.MissBudget
	return info
}

// Trace returns a copy of the job's timeline plus how many older events
// were dropped past the ring cap. ok is false for unknown jobs. Safe on nil.
func (m *Monitor) Trace(jobID int) (events []TraceEvent, dropped int, ok bool) {
	if m == nil {
		return nil, 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	js := m.jobs[jobID]
	if js == nil {
		return nil, 0, false
	}
	return append([]TraceEvent(nil), js.ring...), js.dropped, true
}

// AttributionTotals returns copies of the per-class reconciliation maps.
// Safe on nil.
func (m *Monitor) AttributionTotals() Totals {
	t := Totals{LateByClass: map[string]int64{}, AbandonedByClass: map[string]int64{}}
	if m == nil {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.lateBy {
		t.LateByClass[k] = v
	}
	for k, v := range m.abandBy {
		t.AbandonedByClass[k] = v
	}
	return t
}

// Attributions returns every attribution recorded so far, in finish order.
// Safe on nil.
func (m *Monitor) Attributions() []Attribution {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Attribution(nil), m.attrs...)
}
