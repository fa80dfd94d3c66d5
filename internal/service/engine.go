// Package service is the online scheduling engine behind cmd/mrcpd: it
// accepts an open stream of MapReduce job submissions with SLAs, drives a
// resource manager (MRCP-RM by default) over the discrete-event simulator,
// and answers status, schedule, and metrics queries while the run is in
// flight.
//
// The engine owns the simulator's pacing through the Step/Finish clock
// abstraction and runs in one of two modes:
//
//   - Virtual: events are processed as fast as possible. A run whose jobs
//     are all submitted before Start is byte-identical to a plain
//     sim.New+Run over the same job list — the golden determinism contract
//     the service tests pin down.
//   - Wall: each event waits until its simulated timestamp is due on the
//     wall clock (scaled by Config.Speedup), so the daemon behaves like a
//     live scheduler.
//
// Submissions never block on an in-flight solve: they land in an intake
// queue under their own lock and are injected between simulator steps;
// every injected arrival is the manager's to admit or defer.
package service

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/faults"
	"mrcprm/internal/obs"
	_ "mrcprm/internal/policies" // register every built-in policy
	"mrcprm/internal/rmkit"
	"mrcprm/internal/sim"
	"mrcprm/internal/slo"
	"mrcprm/internal/wal"
	"mrcprm/internal/workload"
)

// Mode selects how the engine paces the simulation clock.
type Mode int

const (
	// Virtual processes events immediately; runs are deterministic.
	Virtual Mode = iota
	// Wall sleeps until each event is due in scaled wall-clock time.
	Wall
)

func (m Mode) String() string {
	if m == Wall {
		return "wall"
	}
	return "virtual"
}

// Config assembles an engine.
type Config struct {
	// Cluster is the simulated system shape.
	Cluster sim.Cluster
	// Policy selects a registered resource-management policy by name
	// ("mrcp", "minedf", "fifo", "edf", ...); empty means "mrcp". Ignored
	// when RM is set.
	Policy string
	// Manager tunes the default MRCP-RM manager; ignored unless the engine
	// runs the "mrcp" policy.
	Manager core.Config
	// RM overrides the resource manager with a pre-built instance,
	// bypassing the registry.
	RM sim.ResourceManager
	// Mode selects virtual or wall pacing.
	Mode Mode
	// Speedup scales wall-clock pacing: simulated ms per wall ms (<=0 means
	// 1). Ignored in Virtual mode.
	Speedup float64
	// Admission enables the fast lower-bound infeasibility check: a job
	// whose execution-time lower bound provably overshoots its deadline is
	// rejected at submission instead of entering the system. A job with a
	// task no resource can hold is rejected either way.
	Admission bool
	// Faults is the initial fault plan; the engine wraps it in a
	// faults.Switch so ApplyFaults can swap per-attempt fates at runtime.
	Faults sim.FaultInjector
	// Telemetry and TelemetrySampleMS attach a telemetry stream to the
	// simulator and (when supported) the manager.
	Telemetry         *obs.Telemetry
	TelemetrySampleMS int64
	// Observer receives task lifecycle notifications (e.g. a
	// trace.Recorder for the determinism golden test).
	Observer sim.Observer

	// JournalPath enables the write-ahead journal: accepted submissions,
	// runtime fault switches, injected outages and the intake close are
	// appended to this file before they take effect, so a crashed daemon can
	// be rebuilt with Recover.
	// New refuses a non-empty journal (pass it to Recover instead).
	JournalPath string
	// JournalSync selects the fsync policy: "always" (default; every
	// record hits stable storage before the submission is acknowledged),
	// "batch" (fsync every 64 appends), or "none".
	JournalSync string

	// MaxPending bounds the number of accepted-but-unfinished jobs
	// (intake queue + outstanding work). Submissions beyond the bound are
	// shed with ErrOverloaded instead of growing the queue without bound;
	// the HTTP layer surfaces that as 429 with a Retry-After derived from
	// the recent drain rate. 0 means unbounded.
	MaxPending int

	// SLO tunes the deadline-miss attribution and burn monitor (miss
	// budget, window, trace ring size). Zero values select the slo
	// package defaults; the Telemetry field is overridden with the
	// engine's own handle. The monitor always runs — traces and burn
	// state are available even without a telemetry sink.
	SLO slo.Config
}

// Sentinel errors surfaced to the HTTP layer.
var (
	// ErrClosed rejects submissions after the intake is closed.
	ErrClosed = errors.New("service: intake closed")
	// ErrRunning rejects a second Start.
	ErrRunning = errors.New("service: engine already started")
	// ErrStopped is the run error after a hard Stop.
	ErrStopped = errors.New("service: engine stopped")
	// ErrOverloaded rejects submissions shed by the MaxPending bound;
	// errors returned by Submit match it via errors.Is and carry the queue
	// state as an *OverloadError.
	ErrOverloaded = errors.New("service: intake overloaded")
	// ErrJournal wraps a write-ahead-journal append failure: the
	// submission was NOT accepted (nothing unjournaled takes effect).
	ErrJournal = errors.New("service: journal write failed")
)

// OverloadError reports a shed submission: the intake was at Max pending
// jobs and the caller should retry after RetryAfter, which is derived from
// the overshoot and the recently observed drain rate.
type OverloadError struct {
	Pending    int
	Max        int
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: intake overloaded (%d pending, max %d); retry after %s",
		e.Pending, e.Max, e.RetryAfter)
}

// Is matches ErrOverloaded so callers can use errors.Is without the type.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// jobEntry is the engine's record of one submission. The immutable fields
// are set at Submit; injectErr is written by the run loop under mu.
type jobEntry struct {
	id  int
	job *workload.Job // nil when the submission was rejected
	// rejectReason is non-empty for admission rejections (kept as a plain
	// string so journal replay can restore it without re-deriving the
	// typed error); rejectDeadline preserves the reported deadline.
	rejectReason   string
	rejectDeadline int64
	// injectErr records a (should-not-happen) AddJob failure so the job
	// does not silently vanish; the job then counts as rejected.
	injectErr error
}

// Engine is the embeddable online resource-manager engine.
type Engine struct {
	cfg    Config
	rm     sim.ResourceManager
	policy string // registry name, or the manager's display name for RM overrides
	sw     *faults.Switch
	mon    *slo.Monitor

	// intakeMu guards submissions and the job registry; it is never held
	// across a simulator step, so Submit cannot block on a solve.
	intakeMu sync.Mutex
	nextID   int
	intake   []*workload.Job
	entries  map[int]*jobEntry
	order    []int
	closed   bool
	started  bool
	rejects  int
	accepted int
	shed     int
	// closeLogged dedups the journal's close record (CloseIntake is
	// idempotent; replay must see at most one).
	closeLogged bool

	// journal is the write-ahead journal (nil when durability is off).
	// Appends happen on the submission, fault and outage paths;
	// wal.Journal serializes internally.
	journal *wal.Journal
	// scheduledFaults replays journaled mid-run fault switches: the run
	// loop installs each spec once the simulation clock reaches its
	// recorded instant. Owned by the loop goroutine after Start; populated
	// only by Recover before it.
	scheduledFaults []scheduledFault

	// finished counts completed + abandoned jobs (updated by the run loop
	// after every step); accepted - finished is the backpressure depth.
	finished atomic.Int64
	rate     rateTracker
	// work is the pending work estimate the router balances on: the
	// effectiveWork of every accepted job, added at register and taken
	// back when the job completes or is abandoned (or fails injection).
	work atomic.Int64

	// mu guards the simulator (and through it the manager) — stepping,
	// injection, and every state query.
	mu      sync.Mutex
	sim     *sim.Simulator
	metrics *sim.Metrics
	runErr  error

	// view is the simulator state the metrics readers report, published
	// under mu after every change to it; viewMu guards it alone, so
	// /v1/metrics and /metrics never wait on mu, which a step holds
	// across the whole solve.
	viewMu sync.Mutex
	view   simView

	simNow    atomic.Int64
	wallStart time.Time

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// New assembles an engine; no goroutine runs until Start.
func New(cfg Config) (*Engine, error) {
	rm, policy := cfg.RM, cfg.Policy
	if rm == nil {
		if policy == "" {
			policy = "mrcp"
		}
		popts := rmkit.Options{}
		if policy == "mrcp" {
			popts.Extra = cfg.Manager
		}
		var err error
		if rm, err = rmkit.New(policy, cfg.Cluster, popts); err != nil {
			return nil, err
		}
	} else if policy == "" {
		policy = rm.Name()
	}
	s, err := sim.New(cfg.Cluster, rm, nil)
	if err != nil {
		return nil, err
	}
	sw := faults.NewSwitch(cfg.Faults)
	if err := s.SetFaultInjector(sw); err != nil {
		return nil, err
	}
	if cfg.Telemetry.Enabled() {
		s.SetTelemetry(cfg.Telemetry, cfg.TelemetrySampleMS)
		if im, ok := rm.(interface{ SetTelemetry(*obs.Telemetry) }); ok {
			im.SetTelemetry(cfg.Telemetry)
		}
	}
	sloCfg := cfg.SLO
	sloCfg.Telemetry = cfg.Telemetry
	mon := slo.NewMonitor(sloCfg)
	if cfg.Speedup <= 0 {
		cfg.Speedup = 1
	}
	e := &Engine{
		cfg:     cfg,
		rm:      rm,
		policy:  policy,
		sw:      sw,
		mon:     mon,
		sim:     s,
		entries: make(map[int]*jobEntry),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.AddObserver(cfg.Observer)
	s.AddObserver(mon)
	s.AddObserver(workObserver{e: e})
	if cfg.JournalPath != "" {
		pol, err := wal.ParseSyncPolicy(cfg.JournalSync)
		if err != nil {
			return nil, err
		}
		j, recs, err := wal.Open(cfg.JournalPath, wal.Options{Sync: pol})
		if err != nil {
			return nil, err
		}
		if len(recs) > 0 {
			j.Close()
			return nil, fmt.Errorf("service: journal %s already holds %d records; replay it with Recover or remove the file",
				cfg.JournalPath, len(recs))
		}
		e.journal = j
		if err := e.journalAppend(e.metaRecord()); err != nil {
			j.Close()
			return nil, err
		}
	}
	return e, nil
}

// NowMS returns the engine's current simulated time: the simulator clock in
// Virtual mode, scaled elapsed wall time in Wall mode.
func (e *Engine) NowMS() int64 {
	if e.cfg.Mode == Wall {
		e.intakeMu.Lock()
		started, at := e.started, e.wallStart
		e.intakeMu.Unlock()
		if !started {
			return 0
		}
		return int64(float64(time.Since(at).Milliseconds()) * e.cfg.Speedup)
	}
	return e.simNow.Load()
}

// Submit accepts one job submission and returns its assigned ID. In Wall
// mode the spec's arrival time is replaced with the submission instant; in
// Virtual mode it is honored, clamped up to the current simulation clock.
// A non-nil *core.AdmissionError return still carries a valid ID: the
// rejection is recorded and queryable.
//
// When MaxPending is set and the intake is full the submission is shed
// with an *OverloadError (no ID is consumed); when a journal is attached
// the accepted submission is appended — and fsynced per the sync policy —
// before Submit returns, so an acknowledged job survives a crash.
func (e *Engine) Submit(spec workload.JobSpec) (int, error) {
	if e.cfg.Telemetry.Enabled() {
		defer func(start time.Time) {
			e.cfg.Telemetry.Observe(obs.HistWallAdmission, float64(time.Since(start).Nanoseconds())/1e6)
		}(time.Now())
	}
	now := e.NowMS()
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	if max := e.cfg.MaxPending; max > 0 {
		if depth := e.accepted - int(e.finished.Load()); depth >= max {
			e.shed++
			e.cfg.Telemetry.Add(obs.CounterServiceShed, 1)
			return 0, &OverloadError{Pending: depth, Max: max, RetryAfter: e.retryAfter(depth - max + 1)}
		}
	}
	if e.cfg.Mode == Wall {
		// Restamp the arrival to the wall clock and shift the SLA window
		// with it, so client-supplied earliest starts and deadlines keep
		// their meaning relative to submission time.
		shift := now - spec.ArrivalMS
		spec.ArrivalMS = now
		if spec.EarliestStartMS > 0 {
			spec.EarliestStartMS += shift
		}
		spec.DeadlineMS += shift
	} else if spec.ArrivalMS < now {
		// Clamp stale virtual arrivals at submission so the journaled spec
		// is exactly the job the run admits (injection re-clamps only if
		// the clock advanced in between, which replay does not reproduce).
		spec.ArrivalMS = now
	}
	j, err := spec.Job(e.nextID)
	if err != nil {
		return 0, err
	}
	// The admission lower bound doubles as the SLO monitor's
	// infeasible-at-admission signal: with admission enforcement on, a
	// failing job is rejected (and its trace records the shed); with it
	// off, the job enters the system flagged so a later deadline miss is
	// attributed to infeasibility rather than backlog or faults.
	// A job the cluster can never run is refused whatever Admission says.
	aerr, _ := core.CheckAdmission(e.cfg.Cluster, j, max(now, j.Arrival)).(*core.AdmissionError)
	rec := &journalRecord{Kind: recSubmit, SimMS: now, ID: e.nextID, Spec: &spec}
	if aerr != nil && (e.cfg.Admission || aerr.Unrunnable != nil) {
		rec.Rejected = aerr.Error()
	}
	// Journal first, register second: a failed append leaves nothing to undo.
	if err := e.journalAppend(rec); err != nil {
		return 0, err
	}
	e.register(rec, j, aerr != nil)
	if rec.Rejected != "" {
		return rec.ID, aerr
	}
	e.signal()
	return rec.ID, nil
}

// register enters one journaled submission into the registry — the one
// apply step of Submit and journal replay; called under intakeMu. An
// accepted record's job j joins the intake, flagged for the SLO monitor
// when infeasible (the admission bound failed); a rejected record keeps
// only its reason and deadline.
func (e *Engine) register(rec *journalRecord, j *workload.Job, infeasible bool) {
	e.nextID++
	entry := &jobEntry{id: rec.ID}
	e.entries[rec.ID] = entry
	e.order = append(e.order, rec.ID)
	if rec.Rejected != "" {
		entry.rejectReason = rec.Rejected
		entry.rejectDeadline = rec.Spec.DeadlineMS
		e.rejects++
		e.mon.JobShed(rec.SimMS, rec.ID, "infeasible")
		return
	}
	entry.job = j
	e.accepted++
	e.work.Add(e.effectiveWork(j))
	e.intake = append(e.intake, j)
	e.mon.JobSubmitted(rec.SimMS, rec.ID, infeasible)
}

// PendingWork returns the engine's pending work estimate in ms: the
// effectiveWork of every accepted job not yet completed or abandoned.
// Lock-free, so a router can balance on it without waiting for a solve.
func (e *Engine) PendingWork() int64 { return e.work.Load() }

// effectiveWork estimates the wall-clock slot time job j will consume on
// the engine's cluster: its total nominal work divided by the cluster's
// mean speed. On a uniform cluster this is exactly TotalWork (no float
// round-trip); on a slow cluster the same nominal work counts for more
// pending load, which keeps a router's least-loaded comparison honest
// across speed classes.
func (e *Engine) effectiveWork(j *workload.Job) int64 {
	w := j.TotalWork()
	c := e.cfg.Cluster
	if !c.Heterogeneous() {
		return w
	}
	var mean float64
	for r := 0; r < c.NumResources; r++ {
		mean += c.SpeedOf(r)
	}
	mean /= float64(c.NumResources)
	if mean <= 0 {
		return w
	}
	return int64(float64(w) / mean)
}

// workObserver takes a finished job's work back out of PendingWork.
type workObserver struct {
	sim.NopObserver
	e *Engine
}

func (o workObserver) JobCompleted(_ int64, j *workload.Job, _ int64) {
	o.e.work.Add(-o.e.effectiveWork(j))
}

func (o workObserver) JobAbandoned(_ int64, j *workload.Job) {
	o.e.work.Add(-o.e.effectiveWork(j))
}

// Start launches the run loop. In Virtual mode submissions made before
// Start form the initial arrival-ordered job list.
func (e *Engine) Start() error {
	if !e.claimStart() {
		return ErrRunning
	}
	go e.loop()
	return nil
}

// claimStart marks the engine started, reporting whether this call did so:
// the one caller that gets true owns running the loop.
func (e *Engine) claimStart() bool {
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	if e.started {
		return false
	}
	e.started = true
	e.wallStart = time.Now()
	return true
}

// CloseIntake stops accepting submissions; the run finishes outstanding
// work (force-draining parked jobs if needed) and then ends. Safe to call
// more than once and before Start.
func (e *Engine) CloseIntake() {
	e.intakeMu.Lock()
	logClose := !e.closed && !e.closeLogged
	e.closed = true
	if logClose {
		e.closeLogged = true
		// Best-effort: a failed append means recovery replays an open
		// intake, which is safe (the operator re-closes it).
		_ = e.journalAppend(&journalRecord{Kind: recClose, SimMS: e.simNow.Load()})
	}
	e.intakeMu.Unlock()
	e.signal()
}

// Stop aborts the run without finishing outstanding work. Wait returns
// ErrStopped unless the run already ended. Stopping an engine that was
// never started ends its run before Stop returns; a later Start returns
// ErrRunning.
func (e *Engine) Stop() {
	e.once.Do(func() { close(e.stop) })
	if e.claimStart() {
		// No loop is running to observe the stop, so run it here: it sees
		// the stop first thing and takes the one shutdown path (ErrStopped,
		// journal closed, Done closed).
		e.loop()
		return
	}
	e.signal()
}

// Done closes when the run loop has exited.
func (e *Engine) Done() <-chan struct{} { return e.done }

// Wait blocks until the run ends and returns its error, if any.
func (e *Engine) Wait() error {
	<-e.done
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.runErr
}

// Result returns the final metrics; valid only after Done.
func (e *Engine) Result() (*sim.Metrics, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics, e.runErr
}

// InjectOutage schedules a resource outage window starting no earlier than
// the current simulated time.
func (e *Engine) InjectOutage(res int, downAt, upAt int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.sim.Now()
	if downAt < now {
		upAt += now - downAt
		downAt = now
	}
	// Journal the clamped window before injecting (WAL discipline: nothing
	// unjournaled takes effect) so replay schedules the exact same events.
	if err := e.journalAppend(&journalRecord{
		Kind: recOutage, SimMS: now,
		Outage: &outageRecord{Resource: res, DownMS: downAt, UpMS: upAt},
	}); err != nil {
		return err
	}
	if err := e.sim.InjectOutage(res, downAt, upAt); err != nil {
		return err
	}
	e.signal()
	return nil
}

// signal nudges the run loop without blocking.
func (e *Engine) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// loop is the run loop: inject intake, step the simulator, pace against
// the wall clock when configured, drain and finish once the intake closes.
func (e *Engine) loop() {
	defer close(e.done)
	defer e.closeJournal()
	drained := false
	for {
		select {
		case <-e.stop:
			e.end(nil, ErrStopped)
			return
		default:
		}
		e.applyScheduledFaults()
		e.drainIntake()
		next, pending := e.peek()
		if !pending {
			if e.intakePending() {
				continue // raced: a submission landed after drainIntake
			}
			if e.intakeClosed() {
				if !drained && e.drainManager() {
					drained = true
					continue
				}
				e.finish()
				return
			}
			e.sleep(0)
			continue
		}
		if e.cfg.Mode == Wall {
			if now := e.NowMS(); next > now {
				d := time.Duration(float64(next-now) / e.cfg.Speedup * float64(time.Millisecond))
				if d < time.Millisecond {
					d = time.Millisecond // sleep(<=0) would wait indefinitely
				}
				e.sleep(d)
				continue
			}
		}
		e.mu.Lock()
		_, err := e.sim.Step()
		m := e.publish()
		e.simNow.Store(e.sim.Now())
		e.mu.Unlock()
		if err != nil {
			e.end(nil, err)
			return
		}
		// Fold the step into the backpressure state: the finished count
		// and the drain-rate window.
		fin := int64(m.JobsCompleted + m.JobsAbandoned)
		e.finished.Store(fin)
		e.rate.observe(time.Now(), fin)
	}
}

// applyScheduledFaults installs journaled mid-run fault switches once the
// simulation clock reaches their recorded instants. Only the run loop
// touches the slice after Start.
func (e *Engine) applyScheduledFaults() {
	now := e.simNow.Load()
	for len(e.scheduledFaults) > 0 && e.scheduledFaults[0].at <= now {
		spec := e.scheduledFaults[0].spec
		e.scheduledFaults = e.scheduledFaults[1:]
		plan, err := spec.plan()
		if err != nil {
			continue // the original run validated it; be lenient on replay
		}
		e.sw.Set(plan)
	}
}

// drainIntake moves queued submissions into the simulator. The batch is
// stable-sorted by effective arrival so a pre-Start submission stream
// reproduces sim.New's arrival ordering exactly.
func (e *Engine) drainIntake() {
	e.intakeMu.Lock()
	batch := e.intake
	e.intake = nil
	e.intakeMu.Unlock()
	if len(batch) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.sim.Now()
	for _, j := range batch {
		if j.Arrival < now {
			j.Arrival = now
			if j.EarliestStart < now {
				j.EarliestStart = now
			}
		}
	}
	sort.SliceStable(batch, func(a, b int) bool { return batch[a].Arrival < batch[b].Arrival })
	for _, j := range batch {
		if err := e.sim.AddJob(j); err != nil {
			// The job will never finish: count it rejected so it releases
			// its pending depth and pending work.
			e.intakeMu.Lock()
			if entry, ok := e.entries[j.ID]; ok {
				entry.injectErr = err
				e.accepted--
				e.rejects++
				e.work.Add(-e.effectiveWork(j))
			}
			e.intakeMu.Unlock()
		}
	}
	e.publish()
}

// simView is what the metrics readers see of the simulator and manager.
type simView struct {
	metrics     sim.Metrics
	now         int64
	outstanding int
	manager     core.Stats
}

// managerStats is implemented by resource managers that keep core.Stats.
type managerStats interface{ Stats() core.Stats }

// publish copies the simulator state the metrics readers report into
// e.view, in place, and returns the metrics it copied. Called under mu.
func (e *Engine) publish() sim.Metrics {
	v := simView{metrics: e.sim.CurrentMetrics(), now: e.sim.Now(), outstanding: e.sim.OutstandingJobs()}
	if st, ok := e.rm.(managerStats); ok {
		v.manager = st.Stats()
	}
	e.viewMu.Lock()
	e.view = v
	e.viewMu.Unlock()
	return v.metrics
}

// readView returns the last published view.
func (e *Engine) readView() simView {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	return e.view
}

// peek reports the next event's timestamp under the simulator lock.
func (e *Engine) peek() (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sim.NextEventAt()
}

func (e *Engine) intakePending() bool {
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	return len(e.intake) > 0
}

func (e *Engine) intakeClosed() bool {
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	return e.closed
}

// drainManager force-admits jobs the manager still holds deferred after
// the event queue ran dry; it reports whether a drain was actually needed
// so the loop retries stepping once. In practice deferred jobs keep timers
// queued, so this is a shutdown safety net.
func (e *Engine) drainManager() bool {
	type drainer interface {
		Drain(sim.Context) error
		Outstanding() int
	}
	d, ok := e.rm.(drainer)
	if !ok {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if d.Outstanding() == 0 {
		return false
	}
	if err := d.Drain(e.sim); err != nil {
		e.runErr = err
		return false
	}
	e.publish()
	return true
}

// sleep waits for a wake-up, a stop, or (when d > 0) the timeout.
func (e *Engine) sleep(d time.Duration) {
	if d <= 0 {
		select {
		case <-e.wake:
		case <-e.stop:
		}
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-e.wake:
	case <-e.stop:
	case <-t.C:
	}
}

func (e *Engine) finish() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.runErr != nil {
		return // a drain error already ended the run
	}
	m, err := e.sim.Finish()
	e.metrics, e.runErr = m, err
	if m != nil {
		e.finished.Store(int64(m.JobsCompleted + m.JobsAbandoned))
	}
}

// retryAfter derives a backoff hint for one shed submission: how long the
// overshoot should take to drain at the recently observed completion rate,
// clamped to [1s, 60s]. Called under intakeMu.
func (e *Engine) retryAfter(excess int) time.Duration {
	if excess < 1 {
		excess = 1
	}
	d := time.Second
	if r := e.rate.perSec(); r > 0 {
		d = time.Duration(float64(excess) / r * float64(time.Second))
	}
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// scheduledFault is one journaled mid-run fault switch awaiting replay.
type scheduledFault struct {
	at   int64
	spec FaultSpec
}

// rateTracker keeps a short window of (wall time, finished jobs) samples
// so shed responses can estimate the current drain rate.
type rateTracker struct {
	mu  sync.Mutex
	pts []ratePoint
}

type ratePoint struct {
	at  time.Time
	fin int64
}

// rateWindow bounds how far back the drain-rate estimate looks.
const rateWindow = 10 * time.Second

func (t *rateTracker) observe(at time.Time, fin int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.pts)
	if n > 0 && t.pts[n-1].fin == fin && at.Sub(t.pts[n-1].at) < 250*time.Millisecond {
		return
	}
	t.pts = append(t.pts, ratePoint{at: at, fin: fin})
	// Drop samples older than the window, always keeping two.
	cut := 0
	for cut < len(t.pts)-2 && at.Sub(t.pts[cut].at) > rateWindow {
		cut++
	}
	t.pts = t.pts[cut:]
}

// perSec returns the drain rate in jobs per wall second over the sample
// window, or 0 when unknown.
func (t *rateTracker) perSec() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.pts)
	if n < 2 {
		return 0
	}
	dt := t.pts[n-1].at.Sub(t.pts[0].at).Seconds()
	df := float64(t.pts[n-1].fin - t.pts[0].fin)
	if dt <= 0 || df <= 0 {
		return 0
	}
	return df / dt
}

func (e *Engine) end(m *sim.Metrics, err error) {
	e.mu.Lock()
	e.metrics, e.runErr = m, err
	e.mu.Unlock()
}

// --- Queries ---

// JobState is the lifecycle state reported for a submission.
type JobState string

const (
	StateRejected  JobState = "rejected"
	StateQueued    JobState = "queued"
	StateScheduled JobState = "scheduled"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	StateAbandoned JobState = "abandoned"
)

// TaskPlacement is one task's planned or actual placement.
type TaskPlacement struct {
	Task     string `json:"task"`
	JobID    int    `json:"jobId"`
	Type     string `json:"type"`
	Resource int    `json:"resource"`
	StartMS  int64  `json:"startMs"`
	EndMS    int64  `json:"endMs"`
	Started  bool   `json:"started"`
	Done     bool   `json:"done"`
}

// JobStatus is the queryable view of one submission.
type JobStatus struct {
	ID    int      `json:"id"`
	State JobState `json:"state"`
	// Reason explains a rejection (admission check or injection failure).
	Reason          string `json:"reason,omitempty"`
	ArrivalMS       int64  `json:"arrivalMs"`
	EarliestStartMS int64  `json:"earliestStartMs"`
	DeadlineMS      int64  `json:"deadlineMs"`
	MapTasks        int    `json:"mapTasks"`
	ReduceTasks     int    `json:"reduceTasks"`
	CompletedTasks  int    `json:"completedTasks"`
	// CompletionMS is set once the job finished; Late reports whether it
	// missed its deadline.
	CompletionMS int64 `json:"completionMs,omitempty"`
	Late         bool  `json:"late"`
	// PredictedEndMS is the latest end over the job's current placements
	// (0 while any task is unplaced); PredictedLateMS is how far that
	// overshoots the deadline (0 when on time or unknown).
	PredictedEndMS  int64           `json:"predictedEndMs,omitempty"`
	PredictedLateMS int64           `json:"predictedLateMs,omitempty"`
	Placements      []TaskPlacement `json:"placements,omitempty"`
}

// Job returns the status of one submission, with per-task placements.
func (e *Engine) Job(id int) (JobStatus, bool) {
	e.intakeMu.Lock()
	entry, ok := e.entries[id]
	e.intakeMu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return e.status(entry, true), true
}

// Jobs returns the status of every submission in ID order, without
// placements.
func (e *Engine) Jobs() []JobStatus {
	e.intakeMu.Lock()
	ids := append([]int(nil), e.order...)
	entries := make([]*jobEntry, len(ids))
	for i, id := range ids {
		entries[i] = e.entries[id]
	}
	e.intakeMu.Unlock()
	out := make([]JobStatus, len(entries))
	for i, entry := range entries {
		out[i] = e.status(entry, false)
	}
	return out
}

func (e *Engine) status(entry *jobEntry, withPlacements bool) JobStatus {
	if entry.rejectReason != "" {
		return JobStatus{ID: entry.id, State: StateRejected, Reason: entry.rejectReason,
			DeadlineMS: entry.rejectDeadline}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	j := entry.job
	st := JobStatus{
		ID:              entry.id,
		ArrivalMS:       j.Arrival,
		EarliestStartMS: j.EarliestStart,
		DeadlineMS:      j.Deadline,
		MapTasks:        len(j.MapTasks),
		ReduceTasks:     len(j.ReduceTasks),
	}
	if entry.injectErr != nil {
		st.State = StateRejected
		st.Reason = entry.injectErr.Error()
		return st
	}
	var (
		anyStarted bool
		allPlaced  = true
		end        int64
	)
	for _, t := range j.Tasks() {
		res, start, placed := e.sim.Placement(t)
		switch {
		case e.sim.Completed(t):
			st.CompletedTasks++
		case e.sim.Started(t):
			anyStarted = true
		}
		if !placed {
			allPlaced = false
		} else if tEnd := start + e.sim.RunningExec(t); tEnd > end {
			end = tEnd
		}
		if withPlacements && placed {
			st.Placements = append(st.Placements, TaskPlacement{
				Task: t.ID, JobID: j.ID, Type: t.Type.String(), Resource: res,
				StartMS: start, EndMS: start + e.sim.RunningExec(t),
				Started: e.sim.Started(t), Done: e.sim.Completed(t),
			})
		}
	}
	switch {
	case e.sim.Abandoned(j):
		st.State = StateAbandoned
	default:
		if at, done := e.sim.JobDone(j); done {
			st.State = StateCompleted
			st.CompletionMS = at
			st.Late = at > j.Deadline
			return st
		}
		switch {
		case anyStarted || st.CompletedTasks > 0:
			st.State = StateRunning
		case allPlaced:
			st.State = StateScheduled
		default:
			st.State = StateQueued
		}
		if allPlaced {
			st.PredictedEndMS = end
			if end > j.Deadline {
				st.PredictedLateMS = end - j.Deadline
			}
		}
	}
	return st
}

// Schedule returns the current placement plan: every placed, not-yet-
// completed task, ordered by start time then task ID.
func (e *Engine) Schedule() []TaskPlacement {
	e.intakeMu.Lock()
	entries := make([]*jobEntry, 0, len(e.order))
	for _, id := range e.order {
		entries = append(entries, e.entries[id])
	}
	e.intakeMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []TaskPlacement
	for _, entry := range entries {
		if entry.job == nil {
			continue
		}
		for _, t := range entry.job.Tasks() {
			res, start, placed := e.sim.Placement(t)
			if !placed || e.sim.Completed(t) {
				continue
			}
			out = append(out, TaskPlacement{
				Task: t.ID, JobID: entry.job.ID, Type: t.Type.String(), Resource: res,
				StartMS: start, EndMS: start + e.sim.RunningExec(t),
				Started: e.sim.Started(t),
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].StartMS != out[b].StartMS {
			return out[a].StartMS < out[b].StartMS
		}
		return out[a].Task < out[b].Task
	})
	return out
}

// Snapshot is the engine-wide metrics view behind GET /v1/metrics.
type Snapshot struct {
	Mode      string `json:"mode"`
	Policy    string `json:"policy"`
	SimTimeMS int64  `json:"simTimeMs"`
	Running   bool   `json:"running"`
	Finished  bool   `json:"finished"`
	Closed    bool   `json:"closed"`

	Submitted int `json:"submitted"`
	Rejected  int `json:"rejected"`
	// Shed counts submissions bounced by the MaxPending backpressure
	// bound; Pending is the current accepted-but-unfinished depth that
	// bound applies to.
	Shed       int `json:"shed"`
	Pending    int `json:"pending"`
	MaxPending int `json:"maxPending,omitempty"`
	// Journal is the write-ahead journal path when durability is on.
	Journal string `json:"journal,omitempty"`
	// Fingerprint is the final metrics fingerprint (16 hex digits), set
	// once the run finished; loadgen -verify compares it against an
	// offline replay of the same stream.
	Fingerprint string `json:"fingerprint,omitempty"`

	JobsArrived   int `json:"jobsArrived"`
	JobsCompleted int `json:"jobsCompleted"`
	LateJobs      int `json:"lateJobs"`
	JobsAbandoned int `json:"jobsAbandoned"`
	Outstanding   int `json:"outstanding"`

	TasksFailed int `json:"tasksFailed,omitempty"`
	TasksKilled int `json:"tasksKilled,omitempty"`
	Outages     int `json:"outages,omitempty"`

	Manager *core.Stats `json:"manager,omitempty"`

	// Counters is the process's telemetry counter registry, which the
	// router and every engine share; the router reads it once for the
	// fleet, so a shard's view does not carry it.
	Counters map[string]int64 `json:"counters,omitempty"`

	// SLO is the sliding-window deadline-miss burn state, its window ending
	// at the engine's present (NowMS); Ready reports "slo-burn" while
	// SLO.Burning is set.
	SLO *slo.BurnInfo `json:"slo,omitempty"`
	// MissByClass counts attributed deadline misses (late completions plus
	// abandonments) per attribution class; the values sum to
	// LateJobs + JobsAbandoned once the run drains.
	MissByClass map[string]int64 `json:"missByClass,omitempty"`

	// Shards is the per-shard breakdown a shard.Router attaches: the flat
	// fields above then carry AGGREGATE values in the single-engine shape
	// (sums for flows and queue depths, max for the clock,
	// all-finished/all-closed for the booleans, a combined fingerprint).
	Shards []ShardView `json:"shards,omitempty"`
}

// ShardView is one shard's slice of an aggregated snapshot: the shard's
// engine snapshot plus its partition shape and the engine's PendingWork.
type ShardView struct {
	Shard         int   `json:"shard"`
	Resources     int   `json:"resources"`
	FirstResource int   `json:"firstResource"`
	PendingWorkMS int64 `json:"pendingWorkMs"`
	Snapshot
}

// Ready derives readiness, the answer behind GET /readyz, from the
// snapshot: false, with a reason, once the run finished, while the intake
// drains after CloseIntake, while the MaxPending bound sheds load, or while
// the SLO burn alarm is set. A router's snapshot answers for its shards
// first, naming the first one that is not ready, and then for the fleet,
// whose merged burn window can trip while no single shard's does.
func (s Snapshot) Ready() (bool, string) {
	for _, v := range s.Shards {
		if ok, reason := v.Snapshot.Ready(); !ok {
			return false, fmt.Sprintf("shard %d: %s", v.Shard, reason)
		}
	}
	switch {
	case s.Finished:
		return false, "finished"
	case s.Closed:
		return false, "draining"
	case s.MaxPending > 0 && s.Pending >= s.MaxPending:
		return false, "overloaded"
	case s.SLO != nil && s.SLO.Burning:
		return false, "slo-burn"
	}
	return true, ""
}

// Health reports the run state from the intake lock and the done channel
// alone, never the simulator lock the run loop holds across a solve.
func (e *Engine) Health() Health {
	e.intakeMu.Lock()
	h := Health{Mode: e.cfg.Mode.String(), Running: e.started, Closed: e.closed}
	e.intakeMu.Unlock()
	select {
	case <-e.done:
		h.Finished, h.Running = true, false
	default:
	}
	return h
}

// Metrics returns the current engine-wide snapshot; safe mid-run, and it
// reads the simulator only through the view the run loop publishes.
func (e *Engine) Metrics() Snapshot {
	h := e.Health()
	e.intakeMu.Lock()
	snap := Snapshot{
		Mode:       h.Mode,
		Policy:     e.policy,
		Running:    h.Running,
		Finished:   h.Finished,
		Closed:     h.Closed,
		Submitted:  e.nextID,
		Rejected:   e.rejects,
		Shed:       e.shed,
		Pending:    e.accepted - int(e.finished.Load()),
		MaxPending: e.cfg.MaxPending,
		Journal:    e.cfg.JournalPath,
	}
	e.intakeMu.Unlock()
	if snap.Finished {
		if m, _ := e.Result(); m != nil {
			snap.Fingerprint = fmt.Sprintf("%016x", m.Fingerprint())
		}
	}
	v := e.readView()
	m := v.metrics
	snap.SimTimeMS = v.now
	snap.Outstanding = v.outstanding
	if _, ok := e.rm.(managerStats); ok {
		snap.Manager = &v.manager
	}
	snap.JobsArrived = m.JobsArrived
	snap.JobsCompleted = m.JobsCompleted
	snap.LateJobs = m.LateJobs
	snap.JobsAbandoned = m.JobsAbandoned
	snap.TasksFailed = m.TasksFailed
	snap.TasksKilled = m.TasksKilled
	snap.Outages = m.Outages
	burn := e.mon.Burn(e.NowMS())
	snap.SLO = &burn
	if by := missByClass(e.mon.AttributionTotals()); len(by) > 0 {
		snap.MissByClass = by
	}
	return snap
}

// missByClass folds a monitor's attribution totals into one miss count per
// class, dropping empty classes.
func missByClass(tot slo.Totals) map[string]int64 {
	var by map[string]int64
	for _, class := range slo.Classes() {
		if n := tot.LateByClass[class] + tot.AbandonedByClass[class]; n > 0 {
			if by == nil {
				by = make(map[string]int64)
			}
			by[class] = n
		}
	}
	return by
}

// Trace returns one job's recorded lifecycle timeline plus how many early
// events the bounded ring dropped; ok is false for unknown IDs.
func (e *Engine) Trace(id int) (events []slo.TraceEvent, dropped int, ok bool) {
	return e.mon.Trace(id)
}

// WriteProm renders one Prometheus text exposition (format 0.0.4) of a
// metrics snapshot under the mrcp_ namespace: the telemetry registry the
// snapshot carries, the families derived from its flat fields — job-flow
// counters, queue and clock gauges, SLO attribution counters and the burn
// window — each shard view's pending work, and the registry's histograms
// hists. Where both hold a name (the SLO monitor's slo_miss_* counters,
// which the registry keeps only when a sink is attached) the snapshot's
// field is written.
func WriteProm(w io.Writer, snap Snapshot, hists []obs.HistSnapshot) error {
	counters, gauges := make(map[string]int64), make(map[string]int64)
	maps.Copy(counters, snap.Counters)
	counters["jobs_submitted_total"] = int64(snap.Submitted)
	counters["jobs_rejected_total"] = int64(snap.Rejected)
	counters["jobs_shed_total"] = int64(snap.Shed)
	counters["jobs_arrived_total"] = int64(snap.JobsArrived)
	counters["jobs_completed_total"] = int64(snap.JobsCompleted)
	counters["jobs_late_total"] = int64(snap.LateJobs)
	counters["jobs_abandoned_total"] = int64(snap.JobsAbandoned)
	if snap.TasksFailed > 0 {
		counters["tasks_failed_total"] = int64(snap.TasksFailed)
	}
	if snap.TasksKilled > 0 {
		counters["tasks_killed_total"] = int64(snap.TasksKilled)
	}
	var missTotal int64
	for class, n := range snap.MissByClass {
		counters[slo.CounterMiss+class] = n
		missTotal += n
	}
	if missTotal > 0 {
		counters["slo_miss_total"] = missTotal
	}
	for _, v := range snap.Shards {
		gauges[obs.GaugeShardPendingWorkPrefix+strconv.Itoa(v.Shard)] = v.PendingWorkMS
	}
	gauges["pending_jobs"] = int64(snap.Pending)
	gauges["sim_time_ms"] = snap.SimTimeMS
	gauges["outstanding_jobs"] = int64(snap.Outstanding)
	var burn slo.BurnInfo
	if snap.SLO != nil {
		burn = *snap.SLO
	}
	gauges["slo_window_finished"] = int64(burn.Finished)
	gauges["slo_window_missed"] = int64(burn.Missed)
	var burning int64
	if burn.Burning {
		burning = 1
	}
	gauges["slo_burning"] = burning
	if err := obs.WritePrometheus(w, "mrcp_", counters, gauges, hists); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"# TYPE mrcp_slo_miss_rate gauge\nmrcp_slo_miss_rate %s\n"+
			"# TYPE mrcp_slo_burn_rate gauge\nmrcp_slo_burn_rate %s\n",
		strconv.FormatFloat(burn.MissRate, 'g', -1, 64),
		strconv.FormatFloat(burn.BurnRate, 'g', -1, 64))
	return err
}

// String implements fmt.Stringer for logs.
func (e *Engine) String() string {
	return fmt.Sprintf("service.Engine(%s, %s)", e.rm.Name(), e.cfg.Mode)
}
