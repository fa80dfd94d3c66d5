// Package slo is the SLA observability plane's stateful half: per-job trace
// timelines, deadline-miss attribution, and a sliding-window miss-budget
// burn monitor. A Monitor attaches to a simulation as a lifecycle observer
// (sim.Simulator.AddObserver); the service engine feeds it the
// admission-side events the simulator cannot see. Everything it records
// is stamped with simulated time, so a deterministic run produces a
// deterministic trace and attribution stream.
package slo

import (
	"maps"
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
	// ClassQueuedBacklog is the default: nothing went wrong with the job
	// itself — it queued behind too much other work.
	ClassQueuedBacklog = "queued_backlog"
)

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

const (
	// MinSample is the minimum number of finishes inside the window before
	// the burn alarm may trip (guards cold starts).
	MinSample = 20
	// TraceCap bounds each job's timeline ring; older events are dropped
	// (and counted) beyond it.
	TraceCap = 64
)

// Config tunes a Monitor. Zero values select the defaults.
type Config struct {
	// MissBudget is the tolerated fraction of SLA misses among finishes
	// inside the window. Default 0.1.
	MissBudget float64
	// WindowMS is the sliding-window length in simulated ms. Default
	// 60000.
	WindowMS int64
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
	return c
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

// jobState is what the monitor knows of a job and the simulator does not:
// its timeline ring and how many entries fell off it, whether it was
// infeasible at admission, and how many fault events hit it.
type jobState struct {
	ring       []TraceEvent
	dropped    int
	infeasible bool
	faults     int
}

type finish struct {
	at   int64
	miss bool
}

// Monitor accumulates traces, per-class miss counts, and burn state,
// keeping per job only what the simulator does not know: what a placement
// is (new, replan, retry) comes from the simulator's sim.PlaceKind. All
// methods are safe for concurrent use.
type Monitor struct {
	sim.NopObserver
	cfg Config

	mu      sync.Mutex
	jobs    map[int]*jobState
	missBy  map[string]int64 // misses per class; nil until the first
	window  []finish         // finish instants, ascending
	lastNow int64
}

// NewMonitor creates a monitor with the given configuration.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults(), jobs: make(map[int]*jobState)}
}

// state returns the job's record, creating it on first sight. Lazy creation
// lets the monitor attach to a plain simulation (no engine submissions).
func (m *Monitor) state(id int) *jobState {
	js := m.jobs[id]
	if js == nil {
		js = &jobState{}
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
	if len(js.ring) >= TraceCap {
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
	m.mu.Lock()
	defer m.mu.Unlock()
	js := m.state(id)
	m.record(js, now, KindSubmitted, "")
	m.record(js, now, KindShed, reason)
}

// --- sim.Observer ---
//
// Task starts and finishes leave no trace entry (start instants are
// recoverable from the placed events and would crowd the ring), nor do
// resource outages, which are cluster-level.

// TaskScheduled implements sim.Observer.
func (m *Monitor) TaskScheduled(now int64, t *workload.Task, j *workload.Job, res int, start int64, kind sim.PlaceKind) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js := m.state(j.ID)
	switch kind {
	case sim.PlaceRetry:
		m.record(js, now, KindTaskRetry, t.ID)
	case sim.PlaceReplan:
		m.record(js, now, KindReplanned, "")
	default:
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
	m.mu.Lock()
	defer m.mu.Unlock()
	js := m.state(j.ID)
	js.faults++
	m.record(js, now, kind, t.ID)
}

// TaskSlowdown implements sim.Observer.
func (m *Monitor) TaskSlowdown(now int64, t *workload.Task, j *workload.Job, res int, effExec, nominal int64) {
	m.taskFault(now, t, j, KindStraggle)
}

// JobCompleted implements sim.Observer: on-time completions close the
// trace; late ones are attributed and counted against the budget.
func (m *Monitor) JobCompleted(now int64, j *workload.Job, latenessMS int64) {
	late := latenessMS > 0
	detail := "on_time"
	if late {
		detail = "late"
	}
	m.mu.Lock()
	js := m.state(j.ID)
	m.record(js, now, KindCompleted, detail)
	var class string
	if late {
		class = m.miss(js)
	}
	m.observeFinish(now, late)
	m.mu.Unlock()
	if late {
		m.emitAttribution(now, j, class, "late", latenessMS)
	}
}

// JobAbandoned implements sim.Observer: every abandonment is an SLA miss.
func (m *Monitor) JobAbandoned(now int64, j *workload.Job) {
	m.mu.Lock()
	js := m.state(j.ID)
	m.record(js, now, KindAbandoned, "")
	class := m.miss(js)
	m.observeFinish(now, true)
	m.mu.Unlock()
	m.emitAttribution(now, j, class, "abandoned", now-j.Deadline)
}

// miss counts one miss of js's job against its class and returns the class.
// The class is the dominant miss cause. Priority: a job that was doomed at
// admission blames admission regardless of later noise; fault damage
// outranks backlog (it delays the job directly); backlog is the residual
// explanation. Callers hold mu.
func (m *Monitor) miss(js *jobState) string {
	class := ClassQueuedBacklog
	switch {
	case js.infeasible:
		class = ClassInfeasible
	case js.faults > 0:
		class = ClassFaultDelay
	}
	if m.missBy == nil {
		m.missBy = make(map[string]int64)
	}
	m.missBy[class]++
	return class
}

// emitAttribution streams one miss, outcome "late" or "abandoned", as an
// slo_attribution event and counts it in the miss counter family.
func (m *Monitor) emitAttribution(now int64, j *workload.Job, class, outcome string, latenessMS int64) {
	tel := m.cfg.Telemetry
	if !tel.Enabled() {
		return
	}
	tel.Emit(now, "obs", "slo_attribution",
		obs.Int("job", j.ID),
		obs.Str("class", class),
		obs.Str("outcome", outcome),
		obs.I64("lateness_ms", latenessMS),
		obs.I64("e2e_ms", now-j.Arrival),
	)
	tel.Add(CounterMiss+class, 1)
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
// latest known sim time; it never moves the window backwards).
func (m *Monitor) Burn(now int64) BurnInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pruneLocked(now)
	info := BurnInfo{
		WindowMS:   m.cfg.WindowMS,
		MissBudget: m.cfg.MissBudget,
		MinSample:  MinSample,
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
// were dropped past the ring cap. ok is false for unknown jobs.
func (m *Monitor) Trace(jobID int) (events []TraceEvent, dropped int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js := m.jobs[jobID]
	if js == nil {
		return nil, 0, false
	}
	return append([]TraceEvent(nil), js.ring...), js.dropped, true
}

// MissByClass returns the SLA misses (late completions plus abandonments)
// attributed so far per class, holding only classes with a miss; nil
// before the first miss. Its values sum to the simulator's LateJobs plus
// JobsAbandoned.
func (m *Monitor) MissByClass() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.missBy)
}
