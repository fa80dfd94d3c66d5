package sim

import (
	"fmt"
	"sort"
	"time"

	"mrcprm/internal/obs"
	"mrcprm/internal/workload"
)

// ResourceManager is the pluggable matchmaking-and-scheduling policy.
// MRCP-RM (internal/core) and the list baselines, MinEDF-WC among them
// (internal/rmkit), implement it. Callbacks receive the simulation Context through which the
// manager inspects state and installs placements.
type ResourceManager interface {
	// Name identifies the manager in reports.
	Name() string
	// OnJobArrival fires when a job enters the system at ctx.Now().
	OnJobArrival(ctx Context, j *workload.Job) error
	// OnTaskComplete fires when a running task finishes.
	OnTaskComplete(ctx Context, t *workload.Task) error
	// OnTimer fires when a timer set through ctx.SetTimer expires.
	OnTimer(ctx Context) error
	// FaultHooks delivers failure-recovery callbacks; managers that do not
	// recover from faults may embed NoFaults.
	FaultHooks
}

// Context is the view of the simulation a resource manager operates
// through.
type Context interface {
	// Now returns the current simulated time (ms).
	Now() int64
	// Cluster returns the simulated system shape.
	Cluster() Cluster
	// Schedule installs (or replaces) the placement of a not-yet-started
	// task: it will start on resource res at time start >= Now().
	Schedule(t *workload.Task, res int, start int64) error
	// Place is Schedule for the task a status handle names, without the
	// lookup: ref is TaskStatus.Ref from Status or JobStatus.
	Place(ref TaskRef, res int, start int64) error
	// Status returns what the simulator knows of a task: its planned or
	// actual placement, whether it started and completed, the duration of
	// its in-flight attempt, and the handle Place takes.
	Status(t *workload.Task) TaskStatus
	// JobStatus appends the status of each of j's tasks, maps then
	// reduces, to buf and returns it: one lookup for the whole job. An
	// unknown job appends nothing.
	JobStatus(j *workload.Job, buf []TaskStatus) []TaskStatus
	// Job returns the handle on the simulator's record of j: its tasks
	// left, placed and running. It is the zero JobRef for a job the run
	// has not registered.
	Job(j *workload.Job) JobRef
	// FirstFit returns the lowest-index up resource on which the task can
	// start now — its slot demand (Req) and memory demand (Mem) fit beside
	// the running attempts and the tasks placed there but not yet started —
	// or -1 when there is none.
	FirstFit(t *workload.Task) int
	// SetTimer schedules an OnTimer callback at the given time (> Now).
	SetTimer(at int64)
	// AddOverhead accrues matchmaking-and-scheduling wall time into the O
	// metric and counts one invocation.
	AddOverhead(d time.Duration)
	// ResourceDown reports whether the resource is currently in an outage;
	// down resources accept no placements.
	ResourceDown(res int) bool
	// Attempts returns the number of failed execution attempts of the task
	// so far (0 when it has never failed).
	Attempts(t *workload.Task) int
	// AbandonJob gives up on a job (typically after exhausting its retry
	// budget): pending placements are removed, the job counts as an SLA
	// violation, and the run may end without completing it. In-flight
	// attempts run to completion and their output is discarded.
	AbandonJob(j *workload.Job) error
}

// TaskStatus is one task's state as Context.Status and Context.JobStatus
// report it.
type TaskStatus struct {
	Task *workload.Task
	// Ref is the handle Context.Place takes; the zero TaskRef names no
	// task.
	Ref TaskRef
	// Res and Start are the task's planned or actual placement when Placed
	// is set; Res is -1 otherwise.
	Res   int
	Start int64
	// Exec is the effective execution time (after straggler slowdown) of
	// the in-flight attempt, or the nominal Task.Exec when the task is not
	// running. Managers use it to model the true finish time of started
	// work.
	Exec int64
	// Placed says the task has a placement; Started and Completed that it
	// has begun executing and has finished.
	Placed, Started, Completed bool
}

// TaskRef is an opaque handle on a task of one simulation, valid for the
// whole run.
type TaskRef struct{ st *taskState }

// JobRef is a handle on the simulator's record of one job, valid for the
// whole run. Its counts are the simulator's own, current at every callback.
// The zero JobRef names no job; its methods must not be called.
type JobRef struct{ js *jobState }

// Left returns the number of the job's tasks not yet completed.
func (r JobRef) Left() int { return r.js.left }

// MapsLeft returns the number of the job's map tasks not yet completed.
func (r JobRef) MapsLeft() int { return r.js.mapsLeft }

// Placed returns the number of the job's tasks of the given type that are
// placed and waiting to start, or running.
func (r JobRef) Placed(typ workload.TaskType) int { return r.js.placed[typ] }

// Running returns the number of the job's attempts in flight.
func (r JobRef) Running() int { return r.js.running }

// Abandoned reports whether the job was given up on.
func (r JobRef) Abandoned() bool { return r.js.abandoned }

// Done returns the job's completion instant, or false while it is still
// outstanding or when it was abandoned.
func (r JobRef) Done() (int64, bool) {
	if r.js.left > 0 || r.js.abandoned {
		return 0, false
	}
	return r.js.doneAt, true
}

type taskState struct {
	task      *workload.Task
	job       *workload.Job
	js        *jobState
	key       int // index into Simulator.byKey, used by events
	res       int
	start     int64
	version   int64
	scheduled bool
	started   bool
	completed bool
	// retry says the last attempt failed or was killed and the task has not
	// been placed since: its next placement is a PlaceRetry.
	retry bool
	// attempt counts failed execution attempts; effExec is the effective
	// (slowdown-adjusted) duration of the in-flight attempt.
	attempt int
	effExec int64
}

// jobState is the simulator's one record of a job: the bookkeeping its
// task states share and how the job ended.
type jobState struct {
	job *workload.Job
	// first is the key of the job's first task: its task states are
	// byKey[first:first+NumTasks()], maps then reduces.
	first int32
	left  int // uncompleted tasks
	// mapsLeft counts uncompleted map tasks: a reduce task may start only
	// at zero (classic MapReduce jobs; TaskPrecedence jobs use Preds).
	mapsLeft int
	// placed counts the tasks of each type placed or running, and running
	// the attempts in flight (JobRef.Placed, JobRef.Running).
	placed  [2]int
	running int
	// abandoned says the job was given up on; doneAt is its completion
	// instant once left is 0 and it was not abandoned.
	abandoned bool
	doneAt    int64
}

// Simulator drives one run: a fixed job list (with arrival times) against a
// cluster under a resource manager.
type Simulator struct {
	cluster Cluster
	rm      ResourceManager
	// jobs holds every job's record in registration order (arrival events
	// index it); byJob finds the same records by job.
	jobs  []*jobState
	byJob map[*workload.Job]*jobState

	queue   eventQueue
	clock   int64
	ledger  *slotLedger
	tasks   map[*workload.Task]*taskState
	byKey   []*taskState
	metrics Metrics
	timers  map[int64]bool
	// activeSince[r] is the instant resource r last became non-idle, or -1.
	activeSince []int64
	observers   []Observer

	// Telemetry sampling state; inert when tel is nil.
	tel        *obs.Telemetry
	nextSample int64
	// What a sample reports, kept current at the state transitions
	// themselves (with or without telemetry attached): attempts in flight
	// and resources in an outage. The slot ledger holds the busy-slot totals
	// and the placed, not yet started task counts the same way.
	running, downN int

	// Fault-injection state; all nil/empty without an injector.
	injector  FaultInjector
	down      []bool
	downSince []int64

	// Stepped-execution state (the clock abstraction used by the online
	// service): started flips on the first Step, and outageUntil[r] tracks
	// the latest known outage end so runtime injection can reject
	// overlapping windows.
	started     bool
	outageUntil []int64
}

// Observer receives the simulator's lifecycle notifications in simulation
// order; see internal/trace for a ready-made recorder. Embed NopObserver to
// implement only the events of interest.
type Observer interface {
	// TaskStarted fires when a task begins executing.
	TaskStarted(now int64, t *workload.Task, j *workload.Job, res int)
	// TaskFinished fires when a task completes.
	TaskFinished(now int64, t *workload.Task, j *workload.Job, res int)
	// TaskFailed fires when a running attempt fails mid-execution.
	TaskFailed(now int64, t *workload.Task, j *workload.Job, res int)
	// TaskKilled fires when a resource outage kills a running attempt.
	TaskKilled(now int64, t *workload.Task, j *workload.Job, res int)
	// ResourceDown fires when a resource outage begins.
	ResourceDown(now int64, res int)
	// ResourceUp fires when a resource outage ends.
	ResourceUp(now int64, res int)
	// TaskScheduled fires for every placement the manager installs; kind
	// says whether it is the task's first placement since it became
	// schedulable (PlaceNew), replaces a pending one (PlaceReplan), or is
	// the first after a failed or killed attempt (PlaceRetry).
	TaskScheduled(now int64, t *workload.Task, j *workload.Job, res int, start int64, kind PlaceKind)
	// TaskSlowdown fires when an attempt starts with effective duration
	// effExec stretched beyond the machine-adjusted exec time nominal.
	TaskSlowdown(now int64, t *workload.Task, j *workload.Job, res int, effExec, nominal int64)
	// JobCompleted fires when the last task of a job finishes. latenessMS
	// is completion minus deadline (negative when the job met its SLA).
	JobCompleted(now int64, j *workload.Job, latenessMS int64)
	// JobAbandoned fires when a job is given up on.
	JobAbandoned(now int64, j *workload.Job)
}

// PlaceKind tells a TaskScheduled notification's placement apart.
type PlaceKind uint8

const (
	// PlaceNew places a task with no pending placement and no failed
	// attempt since it was last placed: its first placement, or one after
	// an outage evacuation.
	PlaceNew PlaceKind = iota
	// PlaceReplan replaces the task's pending placement.
	PlaceReplan
	// PlaceRetry is the first placement after a failed or killed attempt.
	PlaceRetry
)

// NopObserver implements every Observer event as a no-op.
type NopObserver struct{}

func (NopObserver) TaskStarted(int64, *workload.Task, *workload.Job, int)                     {}
func (NopObserver) TaskFinished(int64, *workload.Task, *workload.Job, int)                    {}
func (NopObserver) TaskFailed(int64, *workload.Task, *workload.Job, int)                      {}
func (NopObserver) TaskKilled(int64, *workload.Task, *workload.Job, int)                      {}
func (NopObserver) ResourceDown(int64, int)                                                   {}
func (NopObserver) ResourceUp(int64, int)                                                     {}
func (NopObserver) TaskScheduled(int64, *workload.Task, *workload.Job, int, int64, PlaceKind) {}
func (NopObserver) TaskSlowdown(int64, *workload.Task, *workload.Job, int, int64, int64)      {}
func (NopObserver) JobCompleted(int64, *workload.Job, int64)                                  {}
func (NopObserver) JobAbandoned(int64, *workload.Job)                                         {}

// AddObserver attaches a lifecycle observer; call before Run. Every event
// reaches the observers in attach order. A nil observer is ignored.
func (s *Simulator) AddObserver(o Observer) {
	if o != nil {
		s.observers = append(s.observers, o)
	}
}

// samplePeriodMS is the simulated-time period of the telemetry
// time-series.
const samplePeriodMS = 5000

// SetTelemetry attaches a telemetry core to the simulator and, when the
// resource manager has a SetTelemetry(*obs.Telemetry) method (MRCP-RM
// does), to the manager; call before Run. The simulator emits a sampled
// time-series of slot occupancy, task queue depths, and outstanding jobs:
// whenever event processing crosses a multiple of 5000 ms in simulated
// time, one "sample" event is recorded at that boundary (so long idle gaps
// produce one sample, not thousands). The period is fixed; sampleEveryMS
// is ignored. A nil tel detaches both.
func (s *Simulator) SetTelemetry(tel *obs.Telemetry, sampleEveryMS int64) {
	s.tel = tel
	s.nextSample = samplePeriodMS
	if tm, ok := s.rm.(interface{ SetTelemetry(*obs.Telemetry) }); ok {
		tm.SetTelemetry(tel)
	}
}

// SetFaultInjector installs a fault plan; call before Run. Planned outages
// outside the cluster's resource range are rejected. A nil injector leaves
// the simulator fault-free.
func (s *Simulator) SetFaultInjector(fi FaultInjector) error {
	if fi == nil {
		s.injector = nil
		return nil
	}
	perRes := make(map[int][]Outage)
	for _, o := range fi.PlannedOutages() {
		if o.Resource < 0 || o.Resource >= s.cluster.NumResources {
			return fmt.Errorf("sim: outage on invalid resource %d", o.Resource)
		}
		if o.UpAt <= o.DownAt || o.DownAt < 0 {
			return fmt.Errorf("sim: outage window [%d,%d) on resource %d is invalid",
				o.DownAt, o.UpAt, o.Resource)
		}
		perRes[o.Resource] = append(perRes[o.Resource], o)
	}
	for r, os := range perRes {
		sort.Slice(os, func(i, j int) bool { return os[i].DownAt < os[j].DownAt })
		for i := 1; i < len(os); i++ {
			if os[i].DownAt < os[i-1].UpAt {
				return fmt.Errorf("sim: overlapping outages on resource %d", r)
			}
		}
	}
	s.injector = fi
	return nil
}

// New prepares a simulation of the given jobs. The job list is sorted by
// arrival time internally; it is not modified.
func New(cluster Cluster, rm ResourceManager, jobs []*workload.Job) (*Simulator, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	sorted := append([]*workload.Job(nil), jobs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })
	s := &Simulator{
		cluster:     cluster,
		rm:          rm,
		jobs:        make([]*jobState, 0, len(sorted)),
		byJob:       make(map[*workload.Job]*jobState, len(sorted)),
		ledger:      newSlotLedger(cluster),
		timers:      make(map[int64]bool),
		activeSince: make([]int64, cluster.NumResources),
		down:        make([]bool, cluster.NumResources),
		downSince:   make([]int64, cluster.NumResources),
		outageUntil: make([]int64, cluster.NumResources),
	}
	for r := range s.activeSince {
		s.activeSince[r] = -1
	}
	nTasks := 0
	for _, j := range sorted {
		nTasks += j.NumTasks()
	}
	s.Reserve(nTasks)
	for _, j := range sorted {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		for _, tasks := range [2][]*workload.Task{j.MapTasks, j.ReduceTasks} {
			for _, t := range tasks {
				if err := s.cluster.CheckDemand(t); err != nil {
					return nil, err
				}
			}
		}
		s.register(j)
	}
	return s, nil
}

// Reserve sizes the task index for n more tasks, ahead of a batch of
// AddJob calls. The index grows only when n would overflow it, to at least
// twice its capacity, so reserving every batch costs amortized O(1) per
// task; growing it task by task instead rehashes it about log2(tasks)
// times, most of what registering a large run costs.
func (s *Simulator) Reserve(n int) {
	need := len(s.byKey) + n
	if s.tasks != nil && need <= cap(s.byKey) {
		return
	}
	need = max(need, 2*cap(s.byKey))
	byKey := make([]*taskState, len(s.byKey), need)
	copy(byKey, s.byKey)
	s.byKey = byKey
	tasks := make(map[*workload.Task]*taskState, need)
	for t, st := range s.tasks {
		tasks[t] = st
	}
	s.tasks = tasks
}

// register enters a checked job into the run: its record, its task states,
// allocated as one block and keyed maps first, then reduces, and its
// arrival event.
func (s *Simulator) register(j *workload.Job) {
	states := make([]taskState, j.NumTasks())
	js := &jobState{job: j, first: int32(len(s.byKey)), left: len(states), mapsLeft: len(j.MapTasks)}
	i := 0
	for _, tasks := range [2][]*workload.Task{j.MapTasks, j.ReduceTasks} {
		for _, t := range tasks {
			st := &states[i]
			i++
			*st = taskState{task: t, job: j, js: js, key: len(s.byKey), res: -1}
			s.tasks[t] = st
			s.byKey = append(s.byKey, st)
		}
	}
	s.queue.push(event{at: j.Arrival, kind: evJobArrival, jobIdx: len(s.jobs)})
	s.jobs = append(s.jobs, js)
	s.byJob[j] = js
}

// Run executes the simulation to completion and returns the metrics. It is
// equivalent to draining Step and calling Finish; external drivers (the
// online service) use those directly and own the pacing.
func (s *Simulator) Run() (*Metrics, error) {
	for {
		more, err := s.Step()
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}
	return s.Finish()
}

// start performs the once-per-run setup deferred until the first event is
// processed: planned outage windows enter the event queue here so jobs added
// online (AddJob) before execution begins keep the same queue ordering as a
// pre-loaded run.
func (s *Simulator) start() {
	s.started = true
	if s.injector == nil {
		return
	}
	for _, o := range s.injector.PlannedOutages() {
		s.queue.push(event{at: o.DownAt, kind: evResourceDown, res: o.Resource})
		s.queue.push(event{at: o.UpAt, kind: evResourceUp, res: o.Resource})
		if o.UpAt > s.outageUntil[o.Resource] {
			s.outageUntil[o.Resource] = o.UpAt
		}
	}
}

// Step processes the next pending event and reports whether any events
// remain. It is the unit of the clock abstraction: Run calls it in a tight
// loop (virtual time), while the online service paces calls against a wall
// clock and interleaves job injection between them.
func (s *Simulator) Step() (bool, error) {
	if !s.started {
		s.start()
	}
	ev, ok := s.queue.pop()
	if !ok {
		return false, nil
	}
	if ev.at < s.clock {
		return false, fmt.Errorf("sim: time ran backwards (%d -> %d)", s.clock, ev.at)
	}
	if s.tel.Enabled() && ev.at >= s.nextSample {
		// One sample per crossing, stamped at the first crossed
		// boundary; long idle gaps yield one sample, not thousands.
		s.emitSample(s.nextSample)
		s.nextSample += samplePeriodMS * ((ev.at-s.nextSample)/samplePeriodMS + 1)
	}
	s.clock = ev.at
	var err error
	switch ev.kind {
	case evJobArrival:
		s.metrics.JobsArrived++
		err = s.rm.OnJobArrival(s, s.jobs[ev.jobIdx].job)
	case evTimer:
		if s.timers[ev.at] {
			delete(s.timers, ev.at)
			err = s.rm.OnTimer(s)
		}
	case evTaskStart:
		err = s.handleTaskStart(ev)
	case evTaskFinish:
		err = s.handleTaskFinish(ev)
	case evTaskFail:
		err = s.handleTaskFail(ev)
	case evResourceDown:
		err = s.handleResourceDown(ev)
	case evResourceUp:
		err = s.handleResourceUp(ev)
	}
	if err != nil {
		return false, err
	}
	return !s.queue.empty(), nil
}

// NextEventAt returns the timestamp of the next pending event, or false when
// the queue is empty. Wall-clock drivers use it to sleep until the event is
// due.
func (s *Simulator) NextEventAt() (int64, bool) {
	if s.queue.empty() {
		return 0, false
	}
	return s.queue.h[0].at, true
}

// Finish validates that every job completed (or was abandoned), emits the
// final telemetry, and returns the metrics; an incomplete run names its
// earliest-registered incomplete job. Call it once, after Step reports no
// events remain.
func (s *Simulator) Finish() (*Metrics, error) {
	for _, js := range s.jobs {
		if js.left > 0 && !js.abandoned {
			return nil, fmt.Errorf("sim: run ended with job %d incomplete (%d tasks left)", js.job.ID, js.left)
		}
	}
	if s.tel.Enabled() {
		s.emitSample(s.clock)
		s.tel.Emit(s.clock, obs.LayerSim, "run_end",
			obs.Int("jobs_arrived", s.metrics.JobsArrived),
			obs.Int("jobs_completed", s.metrics.JobsCompleted),
			obs.Int("late_jobs", s.metrics.LateJobs),
			obs.Int("jobs_abandoned", s.metrics.JobsAbandoned),
			obs.I64("makespan_ms", s.metrics.MakespanMS),
		)
	}
	return &s.metrics, nil
}

// AddJob injects a job into a running (or not-yet-started) simulation; its
// arrival event fires at j.Arrival, which must not lie in the past. This is
// the online-submission hook: a pre-loaded run and a run whose jobs are
// added in the same (arrival-sorted) order before the first Step process
// identical event sequences.
func (s *Simulator) AddJob(j *workload.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Arrival < s.clock {
		return fmt.Errorf("sim: job %d arrival %d lies in the past (now %d)", j.ID, j.Arrival, s.clock)
	}
	for _, tasks := range [2][]*workload.Task{j.MapTasks, j.ReduceTasks} {
		for _, t := range tasks {
			if _, dup := s.tasks[t]; dup {
				return fmt.Errorf("sim: task %s already registered", t.ID)
			}
			if err := s.cluster.CheckDemand(t); err != nil {
				return err
			}
		}
	}
	s.register(j)
	return nil
}

// InjectOutage schedules a resource outage window at runtime (the service's
// fault-injection endpoint). The window must start now or later and must not
// overlap any planned or previously injected outage on the resource.
func (s *Simulator) InjectOutage(res int, downAt, upAt int64) error {
	if err := s.CheckOutage(res, downAt, upAt); err != nil {
		return err
	}
	if !s.started {
		s.start()
	}
	s.outageUntil[res] = upAt
	s.queue.push(event{at: downAt, kind: evResourceDown, res: res})
	s.queue.push(event{at: upAt, kind: evResourceUp, res: res})
	return nil
}

// CheckOutage returns the error InjectOutage would return for the window,
// changing nothing: nil when the window is one InjectOutage schedules.
func (s *Simulator) CheckOutage(res int, downAt, upAt int64) error {
	if res < 0 || res >= s.cluster.NumResources {
		return fmt.Errorf("sim: outage on invalid resource %d", res)
	}
	if downAt < s.clock || upAt <= downAt {
		return fmt.Errorf("sim: outage window [%d,%d) on resource %d is invalid at time %d",
			downAt, upAt, res, s.clock)
	}
	if s.down[res] || downAt < s.OutageEnd(res) {
		return fmt.Errorf("sim: outage window [%d,%d) overlaps an existing outage on resource %d",
			downAt, upAt, res)
	}
	return nil
}

// OutageEnd returns the end of the latest outage window planned or injected
// on resource res, 0 when there is none.
func (s *Simulator) OutageEnd(res int) int64 {
	end := s.outageUntil[res]
	if !s.started && s.injector != nil {
		// The planned windows enter outageUntil when the run starts.
		for _, o := range s.injector.PlannedOutages() {
			if o.Resource == res {
				end = max(end, o.UpAt)
			}
		}
	}
	return end
}

// OutstandingJobs counts arrived jobs that are neither completed nor
// abandoned plus jobs whose arrival events are still queued.
func (s *Simulator) OutstandingJobs() int {
	return len(s.jobs) - s.metrics.JobsCompleted - s.metrics.JobsAbandoned
}

// CurrentMetrics returns a snapshot of the metrics accumulated so far;
// unlike Finish it may be called mid-run and performs no validation.
func (s *Simulator) CurrentMetrics() Metrics { return s.metrics }

// sample is one point of the sim time-series.
type sample struct {
	busyMap, busyRed                             int64
	waitMap, waitRed, running, outstanding, down int
}

// sample reads the current point from the transition-maintained counters;
// its cost does not depend on how many tasks the run has registered.
func (s *Simulator) sample() sample {
	return sample{
		busyMap:     s.ledger.mapBusy,
		busyRed:     s.ledger.redBusy,
		waitMap:     s.ledger.waitMap,
		waitRed:     s.ledger.waitRed,
		running:     s.running,
		outstanding: s.metrics.JobsArrived - s.metrics.JobsCompleted - s.metrics.JobsAbandoned,
		down:        s.downN,
	}
}

// emitSample records one point of the sim time-series at simulated time at.
func (s *Simulator) emitSample(at int64) {
	p := s.sample()
	s.tel.Emit(at, obs.LayerSim, "sample",
		obs.I64("busy_map_slots", p.busyMap),
		obs.I64("busy_reduce_slots", p.busyRed),
		obs.Int("waiting_map_tasks", p.waitMap),
		obs.Int("waiting_reduce_tasks", p.waitRed),
		obs.Int("running_tasks", p.running),
		obs.Int("outstanding_jobs", p.outstanding),
		obs.Int("down_resources", p.down),
	)
}

func (s *Simulator) stateOf(t *workload.Task) (*taskState, error) {
	st, ok := s.tasks[t]
	if !ok {
		return nil, fmt.Errorf("sim: unknown task %s", t.ID)
	}
	return st, nil
}

func (s *Simulator) handleTaskStart(ev event) error {
	st := s.byKey[ev.taskKey]
	if st.version != ev.version || st.started || !st.scheduled {
		return nil // superseded by a reschedule
	}
	t, j := st.task, st.job
	if st.start != s.clock {
		return fmt.Errorf("sim: task %s start event at %d but placement says %d", t.ID, s.clock, st.start)
	}
	if s.clock < j.EarliestStart {
		return fmt.Errorf("sim: task %s of job %d started at %d before earliest start %d",
			t.ID, j.ID, s.clock, j.EarliestStart)
	}
	if j.TaskPrecedence {
		for _, p := range t.Preds {
			if !s.tasks[p].completed {
				return fmt.Errorf("sim: task %s started before predecessor %s completed", t.ID, p.ID)
			}
		}
	} else if t.Type == workload.ReduceTask && st.js.mapsLeft > 0 {
		// Name the offender; the scan runs only on this error path.
		for _, mt := range j.MapTasks {
			if !s.tasks[mt].completed {
				return fmt.Errorf("sim: reduce task %s started before map task %s completed", t.ID, mt.ID)
			}
		}
	}
	if s.down[st.res] {
		return fmt.Errorf("sim: task %s started on down resource %d", t.ID, st.res)
	}
	s.ledger.promise(st.res, t, -1)
	if err := s.ledger.acquire(st.res, t); err != nil {
		return err
	}
	if s.activeSince[st.res] < 0 {
		s.activeSince[st.res] = s.clock
	}
	st.started = true
	s.running++
	st.js.running++
	if st.attempt > 0 {
		s.metrics.TasksRetried++
	}
	for _, o := range s.observers {
		o.TaskStarted(s.clock, t, j, st.res)
	}
	// The machine's speed factor scales the nominal execution time first
	// (exactly the identity on uniform clusters); straggler fault factors
	// then stretch the machine-adjusted duration.
	scaled := ScaledExec(t.Exec, s.cluster.SpeedOf(st.res))
	st.effExec = scaled
	var fault AttemptFault
	if s.injector != nil {
		fault = s.injector.Attempt(t.ID, st.attempt)
		if fault.Factor > 1 {
			st.effExec = int64(float64(scaled) * fault.Factor)
			if st.effExec < scaled {
				st.effExec = scaled
			}
		}
	}
	if fault.Fails {
		failAt := int64(fault.FailPoint * float64(st.effExec))
		if failAt < 1 {
			failAt = 1
		}
		if failAt > st.effExec {
			failAt = st.effExec
		}
		s.queue.push(event{at: s.clock + failAt, kind: evTaskFail, taskKey: ev.taskKey, version: st.version})
	} else {
		s.queue.push(event{at: s.clock + st.effExec, kind: evTaskFinish, taskKey: ev.taskKey, version: st.version})
	}
	if st.effExec > scaled || st.effExec > t.Exec {
		if st.effExec > scaled {
			// Genuine straggler: the attempt overruns even the
			// machine-adjusted expectation.
			for _, o := range s.observers {
				o.TaskSlowdown(s.clock, t, j, st.res, st.effExec, scaled)
			}
		}
		// The attempt may overrun the window some planner assumed for it —
		// either the machine-adjusted one (straggler) or the nominal one (a
		// speed-blind plan on a slow machine). Let the manager decide whether
		// its plan is affected and replan before later starts collide with it.
		return s.rm.OnTaskSlowdown(s, t)
	}
	return nil
}

func (s *Simulator) handleTaskFinish(ev event) error {
	st := s.byKey[ev.taskKey]
	if st.version != ev.version || !st.started || st.completed {
		return nil // superseded: the attempt was killed by an outage
	}
	t, j := st.task, st.job
	s.ledger.release(st.res, t)
	if t.Type == workload.MapTask {
		s.metrics.BusyMapSlotMS += st.effExec * t.Req
	} else {
		s.metrics.BusyReduceSlotMS += st.effExec * t.Req
	}
	s.closeActiveWindow(st.res)
	st.completed = true
	s.running--
	st.js.running--
	st.js.placed[t.Type]--
	for _, o := range s.observers {
		o.TaskFinished(s.clock, t, j, st.res)
	}
	if t.Type == workload.MapTask {
		st.js.mapsLeft--
	}
	st.js.left--
	if st.js.left == 0 && !st.js.abandoned {
		s.completeJob(st.js)
	}
	return s.rm.OnTaskComplete(s, t)
}

// handleTaskFail ends a running attempt in failure: the slots are released,
// the work done so far is wasted, and the task becomes schedulable again.
func (s *Simulator) handleTaskFail(ev event) error {
	st := s.byKey[ev.taskKey]
	if st.version != ev.version || !st.started || st.completed {
		return nil // superseded: the attempt was killed by an outage
	}
	t := st.task
	res := st.res
	s.ledger.release(res, t)
	s.metrics.WastedSlotMS += (s.clock - st.start) * t.Req
	s.metrics.TasksFailed++
	s.closeActiveWindow(res)
	s.resetAttempt(st)
	for _, o := range s.observers {
		o.TaskFailed(s.clock, t, st.job, res)
	}
	return s.rm.OnTaskFailed(s, t, res)
}

// handleResourceDown starts an outage: tasks running on the resource are
// killed (counting as failed attempts), pending placements on it are
// evacuated, and the manager is notified once with both lists.
func (s *Simulator) handleResourceDown(ev event) error {
	r := ev.res
	s.down[r] = true
	s.downN++
	s.downSince[r] = s.clock
	s.metrics.Outages++
	var killed, evacuated []*workload.Task
	for _, st := range s.byKey {
		if st.res != r || st.completed {
			continue
		}
		switch {
		case st.started:
			s.ledger.release(r, st.task)
			s.metrics.WastedSlotMS += (s.clock - st.start) * st.task.Req
			s.metrics.TasksKilled++
			s.resetAttempt(st)
			for _, o := range s.observers {
				o.TaskKilled(s.clock, st.task, st.job, r)
			}
			killed = append(killed, st.task)
		case st.scheduled:
			s.unplace(st)
			evacuated = append(evacuated, st.task)
		}
	}
	s.closeActiveWindow(r)
	for _, o := range s.observers {
		o.ResourceDown(s.clock, r)
	}
	return s.rm.OnResourceDown(s, r, killed, evacuated)
}

// handleResourceUp ends an outage.
func (s *Simulator) handleResourceUp(ev event) error {
	r := ev.res
	s.down[r] = false
	s.downN--
	s.metrics.DowntimeMS += s.clock - s.downSince[r]
	for _, o := range s.observers {
		o.ResourceUp(s.clock, r)
	}
	return s.rm.OnResourceUp(s, r)
}

// resetAttempt returns a running task to the schedulable state after a
// failed or killed attempt.
func (s *Simulator) resetAttempt(st *taskState) {
	s.running--
	st.js.running--
	st.js.placed[st.task.Type]--
	st.started = false
	st.scheduled = false
	st.retry = true
	st.res, st.start = -1, 0
	st.effExec = 0
	st.attempt++
	st.version++ // any queued finish/fail/start events become stale
}

// closeActiveWindow ends the resource's pay-per-use active window if it
// just went idle.
func (s *Simulator) closeActiveWindow(res int) {
	if s.activeSince[res] >= 0 && s.ledger.mapUse[res] == 0 && s.ledger.redUse[res] == 0 {
		s.metrics.ResourceActiveMS += s.clock - s.activeSince[res]
		s.activeSince[res] = -1
	}
}

func (s *Simulator) completeJob(js *jobState) {
	j := js.job
	js.doneAt = s.clock
	s.metrics.JobsCompleted++
	rec := JobRecord{Job: j, Completion: s.clock, Done: true}
	if rec.Late() {
		s.metrics.LateJobs++
		lateBy := s.clock - j.Deadline
		s.metrics.TotalLatenessMS += lateBy
		if lateBy > s.metrics.MaxLatenessMS {
			s.metrics.MaxLatenessMS = lateBy
		}
	}
	s.metrics.totalTurnaroundMS += rec.TurnaroundMS()
	if s.clock > s.metrics.MakespanMS {
		s.metrics.MakespanMS = s.clock
	}
	s.metrics.Records = append(s.metrics.Records, rec)
	if s.tel.Enabled() {
		// Both values are pure sim time, so these histograms are
		// deterministic run to run.
		s.tel.Observe(obs.HistJobE2E, float64(s.clock-j.Arrival))
		s.tel.Observe(obs.HistJobLateness, float64(s.clock-j.Deadline))
	}
	for _, o := range s.observers {
		o.JobCompleted(s.clock, j, s.clock-j.Deadline)
	}
}

// --- Context implementation ---

// Now returns the current simulated time.
func (s *Simulator) Now() int64 { return s.clock }

// Cluster returns the simulated cluster shape.
func (s *Simulator) Cluster() Cluster { return s.cluster }

// Schedule installs or replaces the placement of a not-yet-started task.
func (s *Simulator) Schedule(t *workload.Task, res int, start int64) error {
	st, err := s.stateOf(t)
	if err != nil {
		return err
	}
	return s.place(st, res, start)
}

// Place is Schedule for the task ref names.
func (s *Simulator) Place(ref TaskRef, res int, start int64) error {
	if st := ref.st; st == nil || st.key >= len(s.byKey) || s.byKey[st.key] != st {
		return fmt.Errorf("sim: placement through a task handle of no task in this run")
	}
	return s.place(ref.st, res, start)
}

func (s *Simulator) place(st *taskState, res int, start int64) error {
	t := st.task
	if st.started {
		return fmt.Errorf("sim: cannot reschedule started task %s", t.ID)
	}
	if start < s.clock {
		return fmt.Errorf("sim: task %s scheduled in the past (%d < %d)", t.ID, start, s.clock)
	}
	if res < 0 || res >= s.cluster.NumResources {
		return fmt.Errorf("sim: task %s scheduled on invalid resource %d", t.ID, res)
	}
	kind := PlaceNew
	if st.scheduled {
		kind = PlaceReplan
		s.ledger.promise(st.res, t, -1)
	} else {
		if st.retry {
			kind = PlaceRetry
		}
		st.js.placed[t.Type]++
	}
	s.ledger.promise(res, t, 1)
	st.res, st.start = res, start
	st.scheduled = true
	st.retry = false
	st.version++
	s.queue.push(event{at: start, kind: evTaskStart, taskKey: st.key, version: st.version})
	for _, o := range s.observers {
		o.TaskScheduled(s.clock, t, st.job, res, start, kind)
	}
	return nil
}

// unplace removes the pending placement of a placed, not yet started task.
func (s *Simulator) unplace(st *taskState) {
	s.ledger.promise(st.res, st.task, -1)
	st.js.placed[st.task.Type]--
	st.scheduled = false
	st.res, st.start = -1, 0 // never leave a stale placement behind
	st.version++             // existing start events become stale
}

// Status returns the task's state; an unknown task has neither placement
// nor handle.
func (s *Simulator) Status(t *workload.Task) TaskStatus {
	if st, ok := s.tasks[t]; ok {
		return st.status()
	}
	return TaskStatus{Task: t, Res: -1, Exec: t.Exec}
}

// JobStatus appends the state of each of j's tasks, maps then reduces.
func (s *Simulator) JobStatus(j *workload.Job, buf []TaskStatus) []TaskStatus {
	js, ok := s.byJob[j]
	if !ok {
		return buf
	}
	for _, st := range js.states(s) {
		buf = append(buf, st.status())
	}
	return buf
}

// Job returns the handle on j's record; the zero JobRef when j is not
// registered.
func (s *Simulator) Job(j *workload.Job) JobRef { return JobRef{s.byJob[j]} }

// states returns the task states of js's job.
func (js *jobState) states(s *Simulator) []*taskState {
	return s.byKey[js.first : int(js.first)+js.job.NumTasks()]
}

func (st *taskState) status() TaskStatus {
	ts := TaskStatus{Task: st.task, Ref: TaskRef{st}, Res: -1, Exec: st.task.Exec,
		Started: st.started, Completed: st.completed}
	if st.scheduled {
		ts.Placed, ts.Res, ts.Start = true, st.res, st.start
	}
	if st.started && !st.completed {
		ts.Exec = st.effExec
	}
	return ts
}

// FirstFit returns the lowest-index up resource the task can start on now,
// or -1.
func (s *Simulator) FirstFit(t *workload.Task) int { return s.ledger.firstFit(t, s.down) }

// SetTimer schedules an OnTimer callback; duplicate timers at the same
// instant coalesce and timers in the past are ignored.
func (s *Simulator) SetTimer(at int64) {
	if at < s.clock || s.timers[at] {
		return
	}
	s.timers[at] = true
	s.queue.push(event{at: at, kind: evTimer})
}

// AddOverhead accrues scheduling wall time into the O metric.
func (s *Simulator) AddOverhead(d time.Duration) {
	s.metrics.totalOverhead += d
	s.metrics.Invocations++
}

// Overhead returns the scheduling wall time accrued so far, the sum behind
// the O metric.
func (s *Simulator) Overhead() time.Duration { return s.metrics.totalOverhead }

// ResourceDown reports whether the resource is currently in an outage.
func (s *Simulator) ResourceDown(res int) bool {
	return res >= 0 && res < len(s.down) && s.down[res]
}

// Attempts returns the task's failed execution attempts so far.
func (s *Simulator) Attempts(t *workload.Task) int {
	st, ok := s.tasks[t]
	if !ok {
		return 0
	}
	return st.attempt
}

// AbandonJob implements Context: the job's pending placements are removed
// and the run may end without completing it.
func (s *Simulator) AbandonJob(j *workload.Job) error {
	js, known := s.byJob[j]
	if !known {
		return fmt.Errorf("sim: cannot abandon unknown job %d", j.ID)
	}
	if js.left == 0 {
		return fmt.Errorf("sim: cannot abandon completed job %d", j.ID)
	}
	if js.abandoned {
		return fmt.Errorf("sim: job %d abandoned twice", j.ID)
	}
	js.abandoned = true
	s.metrics.JobsAbandoned++
	for _, o := range s.observers {
		o.JobAbandoned(s.clock, j)
	}
	for _, st := range js.states(s) {
		if st.scheduled && !st.started {
			s.unplace(st)
		}
	}
	return nil
}
