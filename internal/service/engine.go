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
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/faults"
	"mrcprm/internal/obs"
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
	// Manager tunes the default MRCP-RM manager; it rides in the policy's
	// rmkit.Options.Extra, which every other policy ignores.
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
	// Telemetry attaches a telemetry stream to the simulator and (when
	// supported) the manager.
	Telemetry *obs.Telemetry

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

	// SLO tunes the deadline-miss burn monitor (miss budget and window).
	// Zero values select the slo package defaults; the Telemetry field is
	// overridden with the engine's own handle. The monitor always runs —
	// traces and burn state are available even without a telemetry sink.
	SLO slo.Config
}

// Sentinel errors surfaced to the HTTP layer.
var (
	// ErrClosed rejects submissions after the intake is closed or the run
	// has ended.
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
	// ErrFinished refuses a fault switch or an outage once the run has
	// ended; nothing is journaled or applied.
	ErrFinished = errors.New("service: run finished")
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
// are set at Submit; injectErr is written by the run loop holding both
// locks, so either lock reads it.
type jobEntry struct {
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

// Engine is the embeddable online resource-manager engine. It has two
// locks, taken in the order mu, then intakeMu: mu guards the simulator, its
// manager, taskBuf and doneWork, and intakeMu guards every other field that
// changes after New. The run loop holds mu across a batch of steps, solves
// included; intakeMu is never held across a step, so submissions and the
// metrics, clock and pending-work readers never wait for a solve.
type Engine struct {
	cfg    Config
	rm     sim.ResourceManager
	policy string // registry name, or the manager's display name for RM overrides
	sw     *faults.Switch
	mon    *slo.Monitor

	intakeMu sync.Mutex
	intake   []*workload.Job
	// entries is the job registry, indexed by the local ID each submission
	// was assigned, so its length is the next ID. It only grows: a slice
	// read under intakeMu stays valid after the lock is released.
	entries  []*jobEntry
	closed   bool
	started  bool
	rejects  int
	accepted int
	shed     int
	// ended is set when the run loop exits: from then on a submission is
	// refused with ErrClosed, and a fault switch or an outage with
	// ErrFinished.
	ended bool

	// journal is the write-ahead journal (nil when durability is off).
	journal *wal.Journal
	// scheduledFaults holds replayed fault switches whose instant lies
	// ahead of the simulation clock; the run loop applies each once the
	// clock reaches it.
	scheduledFaults []*journalRecord

	// view is what the readers see of the simulator and its manager,
	// published after every change to them; accepted minus its finished
	// jobs is the backpressure depth. rate is the drain-rate window,
	// observed as each view is published.
	view simView
	rate rateTracker
	// work is the pending work estimate the router balances on: the
	// effectiveWork of every accepted job, added when its submission is
	// applied and taken back when the job fails injection or when a
	// publish folds in doneWork.
	work int64
	// metrics and runErr are the run's outcome, set as it ends.
	metrics   *sim.Metrics
	runErr    error
	wallStart time.Time

	mu  sync.Mutex
	sim *sim.Simulator
	// taskBuf is the buffer the job views read a job's task states into.
	taskBuf []sim.TaskStatus
	// doneWork sums the effectiveWork of the jobs completed or abandoned
	// since the last publish.
	doneWork int64

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// New assembles an engine; no goroutine runs until Start. A journal at
// Config.JournalPath must hold no record: replay a non-empty one with
// Recover.
func New(cfg Config) (*Engine, error) {
	e, _, err := newEngine(cfg, false)
	return e, err
}

// newEngine is New and Recover: it assembles the engine, then opens the
// journal (openJournal), replaying its records when recovering.
func newEngine(cfg Config, recovering bool) (*Engine, *RecoveryInfo, error) {
	rm, policy := cfg.RM, cfg.Policy
	if rm == nil {
		if policy == "" {
			policy = "mrcp"
		}
		var err error
		if rm, err = rmkit.New(policy, cfg.Cluster, rmkit.Options{Extra: cfg.Manager}); err != nil {
			return nil, nil, err
		}
	} else if policy == "" {
		policy = rm.Name()
	}
	s, err := sim.New(cfg.Cluster, rm, nil)
	if err != nil {
		return nil, nil, err
	}
	sw := faults.NewSwitch()
	if err := s.SetFaultInjector(sw); err != nil {
		return nil, nil, err
	}
	if cfg.Telemetry.Enabled() {
		s.SetTelemetry(cfg.Telemetry, 0)
	}
	sloCfg := cfg.SLO
	sloCfg.Telemetry = cfg.Telemetry
	mon := slo.NewMonitor(sloCfg)
	if cfg.Speedup <= 0 {
		cfg.Speedup = 1
	}
	e := &Engine{
		cfg:    cfg,
		rm:     rm,
		policy: policy,
		sw:     sw,
		mon:    mon,
		sim:    s,
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.AddObserver(mon)
	s.AddObserver(workObserver{e: e})
	info, err := e.openJournal(recovering)
	if err != nil {
		return nil, nil, err
	}
	return e, info, nil
}

// NowMS returns the engine's current simulated time: the published
// simulator clock in Virtual mode, scaled elapsed wall time in Wall mode.
func (e *Engine) NowMS() int64 {
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	return e.now()
}

// now is NowMS under intakeMu.
func (e *Engine) now() int64 {
	if e.cfg.Mode != Wall {
		return e.view.now
	}
	if !e.started {
		return 0
	}
	return int64(float64(time.Since(e.wallStart).Milliseconds()) * e.cfg.Speedup)
}

// Submit accepts one job submission and returns its assigned ID: it
// builds the spec's job and hands both to SubmitJob.
func (e *Engine) Submit(spec workload.JobSpec) (int, error) {
	j, err := spec.Job(0)
	if err != nil {
		return 0, err
	}
	return e.SubmitJob(spec, j)
}

// SubmitJob accepts one job submission, j being spec's job built by
// spec.Job under any ID (a router's feasibility probe), and returns its
// assigned ID. In Wall mode the spec's arrival time is replaced with the
// submission instant; in Virtual mode it is honored, clamped up to the
// current simulation clock. j is then bound to the adjusted spec and the
// assigned ID (workload.JobSpec.Bind), so the registered job equals the
// one journal replay rebuilds. A non-nil *core.AdmissionError return still
// carries a valid ID: the rejection is recorded and queryable.
//
// Once the intake is closed or the run has ended the submission is refused
// with ErrClosed. When MaxPending is set and the intake is full the
// submission is shed with an *OverloadError (no ID is consumed, j is left
// as it was); when a journal is attached the accepted submission is
// appended — and fsynced per the sync policy — before SubmitJob returns,
// so an acknowledged job survives a crash. Nothing keeps spec's slices
// after the call.
func (e *Engine) SubmitJob(spec workload.JobSpec, j *workload.Job) (int, error) {
	if e.cfg.Telemetry.Enabled() {
		defer func(start time.Time) {
			e.cfg.Telemetry.Observe(obs.HistWallAdmission, float64(time.Since(start).Nanoseconds())/1e6)
		}(time.Now())
	}
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	if e.closed || e.ended {
		return 0, ErrClosed
	}
	now := e.now()
	if max := e.cfg.MaxPending; max > 0 {
		if depth := e.accepted - e.view.finished(); depth >= max {
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
	id := len(e.entries)
	if err := spec.Bind(j, id); err != nil {
		return 0, err
	}
	// The admission lower bound doubles as the SLO monitor's
	// infeasible-at-admission signal: with admission enforcement on, a
	// failing job is rejected (and its trace records the shed); with it
	// off, the job enters the system flagged so a later deadline miss is
	// attributed to infeasibility rather than backlog or faults.
	// A job the cluster can never run is refused whatever Admission says.
	aerr, _ := core.CheckAdmission(e.cfg.Cluster, j, max(now, j.Arrival)).(*core.AdmissionError)
	rec := &journalRecord{Kind: recSubmit, SimMS: now, ID: id, Spec: &spec}
	if aerr != nil && (e.cfg.Admission || aerr.Unrunnable != nil) {
		rec.Rejected = aerr.Error()
	}
	// Journal first, apply second: a failed append leaves nothing to undo.
	if err := e.journalAppend(rec); err != nil {
		return 0, err
	}
	e.apply(rec, j, aerr != nil)
	if rec.Rejected != "" {
		return id, aerr
	}
	return id, nil
}

// apply makes one journaled input take effect, and is the only place any
// does: the live calls (SubmitJob, ApplyFaults, InjectOutage, CloseIntake)
// validate their input, append rec and then apply it, holding intakeMu
// (and mu as well for a fault switch or an outage), as does the run loop
// for a fault switch it held back until its instant; Recover applies each
// record it decoded and validated before the engine is shared. For an
// accepted submission, j is its bound job and infeasible whether the
// admission bound failed, which flags the job for the SLO monitor.
func (e *Engine) apply(rec *journalRecord, j *workload.Job, infeasible bool) {
	switch rec.Kind {
	case recSubmit:
		entry := &jobEntry{rejectReason: rec.Rejected}
		if rec.Rejected != "" {
			entry.rejectDeadline = rec.Spec.DeadlineMS
			e.rejects++
			e.mon.JobShed(rec.SimMS, rec.ID, "infeasible")
		} else {
			entry.job = j
			e.accepted++
			e.work += e.effectiveWork(j)
			e.intake = append(e.intake, j)
			e.mon.JobSubmitted(rec.SimMS, rec.ID, infeasible)
		}
		e.entries = append(e.entries, entry)
	case recFaults:
		// A switch installs once the simulation clock reaches its instant:
		// at once when applied live, and at once or from the run loop when
		// replayed before Start.
		if rec.SimMS > e.view.now {
			e.scheduledFaults = append(e.scheduledFaults, rec)
			return
		}
		plan, _ := rec.Faults.plan() // validated before it was journaled or replayed
		e.sw.Set(plan)
	case recOutage:
		// A live window was checked before it was journaled. A replayed one
		// the simulator refuses is skipped as its run skipped it: builds
		// that journaled before checking wrote such records.
		_ = e.sim.InjectOutage(rec.Outage.Resource, rec.Outage.DownMS, rec.Outage.UpMS)
	case recClose:
		e.closed = true
	}
	e.signal()
}

// PendingWork returns the engine's pending work estimate in ms: the
// effectiveWork of every accepted job not yet completed or abandoned as of
// the last published view. It reads under intakeMu, so a router can balance
// on it without waiting for a solve.
func (e *Engine) PendingWork() int64 {
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	return e.work
}

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

// workObserver sums a finished job's work into doneWork, under mu, for the
// next publish to take out of PendingWork.
type workObserver struct {
	sim.NopObserver
	e *Engine
}

func (o workObserver) JobCompleted(_ int64, j *workload.Job, _ int64) {
	o.e.doneWork += o.e.effectiveWork(j)
}

func (o workObserver) JobAbandoned(_ int64, j *workload.Job) {
	o.e.doneWork += o.e.effectiveWork(j)
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
	defer e.intakeMu.Unlock()
	if e.closed {
		return
	}
	rec := &journalRecord{Kind: recClose, SimMS: e.view.now}
	// Best-effort: a failed append means recovery replays an open intake,
	// which is safe (the operator re-closes it).
	_ = e.journalAppend(rec)
	e.apply(rec, nil, false)
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
	_, err := e.Result()
	return err
}

// Result returns the final metrics; valid only after Done.
func (e *Engine) Result() (*sim.Metrics, error) {
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	return e.metrics, e.runErr
}

// InjectOutage schedules a resource outage window starting no earlier than
// the current simulated time and returns the window it scheduled: a window
// that asks for a start the simulator has passed begins now and keeps its
// length. A window the simulator refuses, or any window once the run has
// ended (ErrFinished), is neither journaled nor scheduled.
func (e *Engine) InjectOutage(res int, downAt, upAt int64) (int64, int64, error) {
	if downAt < 0 || upAt <= downAt {
		return 0, 0, fmt.Errorf("service: outage window [%d,%d) is invalid", downAt, upAt)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	if e.ended {
		return 0, 0, ErrFinished
	}
	now := e.sim.Now()
	if downAt < now {
		shift := now - downAt
		if upAt > math.MaxInt64-shift {
			return 0, 0, fmt.Errorf("service: outage window [%d,%d) moved to start at %d ends past the largest time",
				downAt, upAt, now)
		}
		downAt, upAt = now, upAt+shift
	}
	if err := e.sim.CheckOutage(res, downAt, upAt); err != nil {
		return 0, 0, err
	}
	// Journal the clamped window before injecting (WAL discipline: nothing
	// unjournaled takes effect) so replay schedules the exact same events.
	rec := &journalRecord{Kind: recOutage, SimMS: now,
		Outage: &outageRecord{Resource: res, DownMS: downAt, UpMS: upAt}}
	if err := e.journalAppend(rec); err != nil {
		return 0, 0, err
	}
	e.apply(rec, nil, false)
	return downAt, upAt, nil
}

// signal nudges the run loop without blocking.
func (e *Engine) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// loop is the run loop: it runs the stream, ends the run with the outcome
// and closes Done.
func (e *Engine) loop() {
	defer close(e.done)
	e.end(e.run())
}

// Bounds on one batch of a closed virtual drain (see run): a reader that
// needs mu waits for at most this many steps, or for about this much of the
// manager's own scheduling time, whichever comes first.
const (
	batchSteps    = 64
	batchOverhead = time.Millisecond
)

// run injects intake, steps the simulator, paces against the wall clock
// when configured, and finishes once the intake is closed and the event
// queue is empty. It steps in batches, publishing the view once per batch:
// a batch is one step while the intake is open and always in Wall mode, so
// submissions, the arrival clamp, the MaxPending bound, a router's
// PendingWork and wall pacing see the view of every step. Once the intake
// of a Virtual engine is closed, a batch runs under one hold of mu until
// the queue empties, a step fails, a signal is pending, the clock reaches
// the next held-back fault switch or the batch bounds are reached.
func (e *Engine) run() (*sim.Metrics, error) {
	for {
		select {
		case <-e.stop:
			return nil, ErrStopped
		default:
		}
		// This pass answers every signal pending now, so it consumes it; one
		// left pending would end every batch after its first step.
		select {
		case <-e.wake:
		default:
		}
		steps, until := e.drainIntake()
		next, pending := e.peek()
		if !pending {
			e.intakeMu.Lock()
			queued, closed := len(e.intake) > 0, e.closed
			e.intakeMu.Unlock()
			switch {
			case queued:
				continue // raced: a submission landed after drainIntake
			case !closed:
				e.sleep(0)
				continue
			}
			// The intake is closed and no event is queued, so the run is
			// over. No job can be left parked here: the manager arms a timer
			// at s_j − lead for every job it defers (Section V.E), and that
			// timer stays queued until it releases the job. A job stranded
			// anyway makes Finish fail with "run ended with job N incomplete".
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.sim.Finish()
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
		err := e.stepBatch(steps, until)
		e.publish()
		e.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
}

// stepBatch runs up to n simulator steps under mu, ending the batch early
// once the queue is empty, a step fails, a signal is pending, the clock
// reaches until or the manager's scheduling time in the batch passes
// batchOverhead.
func (e *Engine) stepBatch(n int, until int64) error {
	spent := e.sim.Overhead()
	for range n {
		more, err := e.sim.Step()
		if err != nil || !more || len(e.wake) > 0 || e.sim.Now() >= until ||
			e.sim.Overhead()-spent > batchOverhead {
			return err
		}
	}
	return nil
}

// drainIntake installs the replayed fault switches whose instants the
// simulation clock has reached, then moves queued submissions into the
// simulator. The batch is stable-sorted by effective arrival so a
// pre-Start submission stream reproduces sim.New's arrival ordering
// exactly. It returns the next step batch's bounds: its length, batchSteps
// once the intake of a Virtual engine is closed and 1 otherwise, and the
// instant of the next held-back fault switch (math.MaxInt64 when none is).
func (e *Engine) drainIntake() (steps int, until int64) {
	e.intakeMu.Lock()
	for len(e.scheduledFaults) > 0 && e.scheduledFaults[0].SimMS <= e.view.now {
		rec := e.scheduledFaults[0]
		e.scheduledFaults = e.scheduledFaults[1:]
		e.apply(rec, nil, false)
	}
	steps, until = 1, math.MaxInt64
	if e.closed && e.cfg.Mode == Virtual {
		steps = batchSteps
	}
	if len(e.scheduledFaults) > 0 {
		until = e.scheduledFaults[0].SimMS
	}
	batch := e.intake
	e.intake = nil
	e.intakeMu.Unlock()
	if len(batch) == 0 {
		return steps, until
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.sim.Now()
	nTasks := 0
	for _, j := range batch {
		nTasks += j.NumTasks()
		if j.Arrival < now {
			j.Arrival = now
			if j.EarliestStart < now {
				j.EarliestStart = now
			}
		}
	}
	sort.SliceStable(batch, func(a, b int) bool { return batch[a].Arrival < batch[b].Arrival })
	e.sim.Reserve(nTasks)
	for _, j := range batch {
		if err := e.sim.AddJob(j); err != nil {
			// The job will never finish: count it rejected so it releases
			// its pending depth and pending work.
			e.intakeMu.Lock()
			e.entries[j.ID].injectErr = err
			e.accepted--
			e.rejects++
			e.work -= e.effectiveWork(j)
			e.intakeMu.Unlock()
		}
	}
	e.publish()
	return steps, until
}

// simView is what the readers see of the simulator and manager.
type simView struct {
	metrics     sim.Metrics
	now         int64
	outstanding int
	manager     core.Stats
}

// finished counts the view's completed and abandoned jobs.
func (v *simView) finished() int { return v.metrics.JobsCompleted + v.metrics.JobsAbandoned }

// managerStats is implemented by resource managers that keep core.Stats.
type managerStats interface{ Stats() core.Stats }

// publish copies what the readers report of the simulator and manager into
// e.view, takes doneWork out of the pending work and observes the drain
// rate, all in one intakeMu section. Called under mu after every change to
// the simulator: every batch of steps, every intake drain.
func (e *Engine) publish() {
	v := simView{metrics: e.sim.CurrentMetrics(), now: e.sim.Now(), outstanding: e.sim.OutstandingJobs()}
	if st, ok := e.rm.(managerStats); ok {
		v.manager = st.Stats()
	}
	at := time.Now()
	e.intakeMu.Lock()
	e.view = v
	e.work -= e.doneWork
	e.rate.observe(at, v.finished())
	e.intakeMu.Unlock()
	e.doneWork = 0
}

// peek reports the next event's timestamp under the simulator lock.
func (e *Engine) peek() (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sim.NextEventAt()
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

// rateTracker keeps a short window of (wall time, finished jobs) samples
// so shed responses can estimate the current drain rate.
type rateTracker struct {
	pts []ratePoint
}

type ratePoint struct {
	at  time.Time
	fin int
}

// rateWindow bounds how far back the drain-rate estimate looks.
const rateWindow = 10 * time.Second

func (t *rateTracker) observe(at time.Time, fin int) {
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

// end records the run's outcome and marks the run ended, then syncs and
// closes the journal; every record that matters is on disk by then.
func (e *Engine) end(m *sim.Metrics, err error) {
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	e.metrics, e.runErr, e.ended = m, err, true
	if e.journal != nil {
		_ = e.journal.Close()
	}
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

// registry returns the job registry as it stands.
func (e *Engine) registry() []*jobEntry {
	e.intakeMu.Lock()
	defer e.intakeMu.Unlock()
	return e.entries
}

// Job returns the status of one submission, with per-task placements.
func (e *Engine) Job(id int) (JobStatus, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	entries := e.registry()
	if id < 0 || id >= len(entries) {
		return JobStatus{}, false
	}
	return e.status(id, entries[id], true), true
}

// Jobs returns the status of every submission in ID order, without
// placements. The whole listing is read under one hold of the simulator
// lock, so it describes one moment.
func (e *Engine) Jobs() []JobStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	entries := e.registry()
	out := make([]JobStatus, len(entries))
	for id, entry := range entries {
		out[id] = e.status(id, entry, false)
	}
	return out
}

// status reports one submission. It scans the job's tasks only for its
// placements or for the predicted end of a live job whose tasks are all
// placed. Callers hold mu.
func (e *Engine) status(id int, entry *jobEntry, withPlacements bool) JobStatus {
	if entry.rejectReason != "" {
		return JobStatus{ID: id, State: StateRejected, Reason: entry.rejectReason,
			DeadlineMS: entry.rejectDeadline}
	}
	j := entry.job
	st := JobStatus{
		ID:              id,
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
	run := e.sim.Job(j)
	if run == (sim.JobRef{}) {
		// Not registered with the simulator yet: no record, no placement.
		st.State = StateQueued
		return st
	}
	st.CompletedTasks = j.NumTasks() - run.Left()
	// A completed task keeps its placement: every task is placed when every
	// one not completed is.
	allPlaced := run.Placed(workload.MapTask)+run.Placed(workload.ReduceTask) == run.Left()
	at, done := run.Done()
	var end int64
	if withPlacements || (allPlaced && !done && !run.Abandoned()) {
		e.taskBuf = e.sim.JobStatus(j, e.taskBuf[:0])
		for _, ts := range e.taskBuf {
			if !ts.Placed {
				continue
			}
			end = max(end, ts.Start+ts.Exec)
			if withPlacements {
				t := ts.Task
				st.Placements = append(st.Placements, TaskPlacement{
					Task: t.ID, JobID: j.ID, Type: t.Type.String(), Resource: ts.Res,
					StartMS: ts.Start, EndMS: ts.Start + ts.Exec,
					Started: ts.Started, Done: ts.Completed,
				})
			}
		}
	}
	switch {
	case run.Abandoned():
		st.State = StateAbandoned
		return st
	case done:
		st.State = StateCompleted
		st.CompletionMS = at
		st.Late = at > j.Deadline
		return st
	case run.Running() > 0 || st.CompletedTasks > 0:
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
	return st
}

// Schedule returns the current placement plan: every placed, not-yet-
// completed task, ordered by start time then task ID.
func (e *Engine) Schedule() []TaskPlacement {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []TaskPlacement
	for _, entry := range e.registry() {
		if entry.job == nil {
			continue
		}
		// Only a job with a task placed and not completed has one to list:
		// finished and not-yet-registered jobs cost one lookup, no task scan.
		run := e.sim.Job(entry.job)
		if run == (sim.JobRef{}) || run.Placed(workload.MapTask)+run.Placed(workload.ReduceTask) == 0 {
			continue
		}
		e.taskBuf = e.sim.JobStatus(entry.job, e.taskBuf[:0])
		for _, ts := range e.taskBuf {
			if !ts.Placed || ts.Completed {
				continue
			}
			t := ts.Task
			out = append(out, TaskPlacement{
				Task: t.ID, JobID: entry.job.ID, Type: t.Type.String(), Resource: ts.Res,
				StartMS: ts.Start, EndMS: ts.Start + ts.Exec,
				Started: ts.Started,
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
// engine snapshot plus its partition (the cluster its engine runs, and
// where that slice starts in the full cluster), the manager config its
// policy was built with, and the engine's PendingWork. Cluster and
// ManagerConfig are what an offline replay of the shard needs.
type ShardView struct {
	Shard         int         `json:"shard"`
	Cluster       sim.Cluster `json:"cluster"`
	ManagerConfig core.Config `json:"managerConfig"`
	FirstResource int         `json:"firstResource"`
	PendingWorkMS int64       `json:"pendingWorkMs"`
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
	defer e.intakeMu.Unlock()
	return e.health()
}

// health is Health under intakeMu.
func (e *Engine) health() Health {
	h := Health{Mode: e.cfg.Mode.String(), Running: e.started, Closed: e.closed}
	select {
	case <-e.done:
		h.Finished, h.Running = true, false
	default:
	}
	return h
}

// Metrics returns the current engine-wide snapshot; safe mid-run. Its
// counters, the published view and the clock are read in one intakeMu
// section, so they describe one moment, and the simulator lock is never
// taken.
func (e *Engine) Metrics() Snapshot {
	e.intakeMu.Lock()
	h, v := e.health(), e.view
	m := &v.metrics
	snap := Snapshot{
		Mode:          h.Mode,
		Policy:        e.policy,
		SimTimeMS:     v.now,
		Running:       h.Running,
		Finished:      h.Finished,
		Closed:        h.Closed,
		Submitted:     len(e.entries),
		Rejected:      e.rejects,
		Shed:          e.shed,
		Pending:       e.accepted - v.finished(),
		MaxPending:    e.cfg.MaxPending,
		Journal:       e.cfg.JournalPath,
		JobsArrived:   m.JobsArrived,
		JobsCompleted: m.JobsCompleted,
		LateJobs:      m.LateJobs,
		JobsAbandoned: m.JobsAbandoned,
		Outstanding:   v.outstanding,
		TasksFailed:   m.TasksFailed,
		TasksKilled:   m.TasksKilled,
		Outages:       m.Outages,
	}
	final, now := e.metrics, e.now()
	e.intakeMu.Unlock()
	if h.Finished && final != nil {
		snap.Fingerprint = fmt.Sprintf("%016x", final.Fingerprint())
	}
	if _, ok := e.rm.(managerStats); ok {
		snap.Manager = &v.manager
	}
	burn := e.mon.Burn(now)
	snap.SLO = &burn
	snap.MissByClass = e.mon.MissByClass()
	return snap
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
