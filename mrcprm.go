// Package mrcprm is the public API of this repository: a reproduction of
// "A Constraint Programming-Based Resource Management Technique for
// Processing MapReduce Jobs with SLAs on Clouds" (Lim, Majumdar,
// Ashwood-Smith; ICPP 2014).
//
// The package re-exports the stable surface of the internal packages:
//
//   - the MapReduce job/SLA model and the paper's two workload generators
//     (Table 3 synthetic, Table 4 Facebook-derived),
//   - MRCP-RM itself (the CP-based resource manager of Sections III-V) and
//     the MinEDF-WC baseline it is evaluated against,
//   - the discrete event simulator and its metrics (O, N, T, P),
//   - the closed-system batch solver, and
//   - the experiment harness that regenerates Figs 2-9.
//
// # Quick start
//
//	cfg := mrcprm.DefaultSyntheticWorkload()
//	jobs, _ := cfg.Generate(100, mrcprm.NewStream(1, 2))
//	cluster := mrcprm.Cluster{NumResources: 50, MapSlots: 2, ReduceSlots: 2}
//	metrics, _ := mrcprm.Simulate(cluster, mrcprm.NewManager(cluster, mrcprm.DefaultConfig()), jobs)
//	fmt.Printf("P=%.2f%% T=%.1fs O=%.4fs\n", 100*metrics.P(), metrics.T(), metrics.O())
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory and paper-to-module mapping.
package mrcprm

import (
	"io"
	"net/http"

	"mrcprm/internal/core"
	"mrcprm/internal/cp"
	"mrcprm/internal/experiment"
	"mrcprm/internal/faults"
	"mrcprm/internal/fifo"
	"mrcprm/internal/minedf"
	"mrcprm/internal/obs"
	_ "mrcprm/internal/policies" // register every built-in policy
	"mrcprm/internal/rmkit"
	"mrcprm/internal/service"
	"mrcprm/internal/shard"
	"mrcprm/internal/sim"
	"mrcprm/internal/slo"
	"mrcprm/internal/stats"
	"mrcprm/internal/trace"
	"mrcprm/internal/workload"
)

// Workload model (Section III.A).
type (
	// Job is a MapReduce job with its SLA (earliest start time, task
	// execution times, end-to-end deadline) — or, built by NewWorkflow, a
	// workflow whose tasks follow declared dependencies.
	Job = workload.Job
	// Task is one map or reduce task.
	Task = workload.Task
	// TaskType distinguishes map from reduce tasks.
	TaskType = workload.TaskType
	// SyntheticWorkload parameterizes the Table 3 generator.
	SyntheticWorkload = workload.SyntheticConfig
	// FacebookWorkload parameterizes the Table 4 generator.
	FacebookWorkload = workload.FacebookConfig
)

// Task types.
const (
	MapTask    = workload.MapTask
	ReduceTask = workload.ReduceTask
)

// Simulation substrate (Section VI).
type (
	// Cluster is the simulated system component. Cluster.Speed gives every
	// machine a relative speed factor (nil = uniform) and
	// Cluster.MemCapacity adds an optional per-machine memory dimension;
	// both default off, in which case behavior is bit-identical to the
	// historical uniform-slot model.
	Cluster = sim.Cluster
	// ClusterSpec is the declarative builder for a (possibly heterogeneous)
	// cluster: one ResourceSpec per machine plus shared slot counts and an
	// optional memory capacity. Build the sim.Cluster with its Cluster()
	// method.
	ClusterSpec = core.ClusterSpec
	// ResourceSpec describes one machine of a ClusterSpec: its relative
	// speed factor.
	ResourceSpec = core.ResourceSpec
	// Metrics carries the paper's O, N, T, P metrics for one run.
	Metrics = sim.Metrics
	// JobRecord is a per-job outcome.
	JobRecord = sim.JobRecord
	// ResourceManager is the pluggable matchmaking-and-scheduling policy.
	ResourceManager = sim.ResourceManager
	// Context is the view managers operate through.
	Context = sim.Context
	// TaskStatus is one task's state as Context.Status and
	// Context.JobStatus report it.
	TaskStatus = sim.TaskStatus
	// TaskRef is the handle Context.Place takes (TaskStatus.Ref).
	TaskRef = sim.TaskRef
)

// MRCP-RM (Sections III-V).
type (
	// Config tunes MRCP-RM.
	Config = core.Config
	// Manager is the CP-based resource manager.
	Manager = core.Manager
	// ManagerStats carries MRCP-RM's internal counters.
	ManagerStats = core.Stats
	// Schedule is a closed-system batch solve result.
	Schedule = core.Schedule
	// Assignment is one task placement in a batch schedule.
	Assignment = core.Assignment
	// SolveMode selects combined (two-phase) or direct matchmaking.
	SolveMode = core.SolveMode
	// OrderingStrategy selects the search's job ordering heuristic.
	OrderingStrategy = cp.OrderingStrategy
)

// Solve modes and ordering strategies.
const (
	ModeCombined = core.ModeCombined
	ModeDirect   = core.ModeDirect

	OrderEDF         = cp.OrderEDF
	OrderJobID       = cp.OrderJobID
	OrderLeastLaxity = cp.OrderLeastLaxity
)

// Experiments (Section VI).
type (
	// Experiment is one registered evaluation experiment.
	Experiment = experiment.Spec
	// ExperimentOptions sizes an experiment run.
	ExperimentOptions = experiment.Options
	// ExperimentResult is a regenerated figure.
	ExperimentResult = experiment.Result
)

// NewWorkflow creates an empty workflow — the paper's future-work
// generalization beyond two-phase MapReduce — with the given SLA. A
// workflow is a Job whose tasks, added with AddTask, follow the
// dependencies declared with AddDep or Chain instead of the
// reduce-after-all-maps rule. SolveBatch and MRCP-RM schedule it as they
// schedule any job.
func NewWorkflow(id int, earliestStart, deadline int64) *Job {
	return workload.NewWorkflow(id, earliestStart, deadline)
}

// Fault injection and recovery (robustness evaluation beyond the paper's
// fault-free model).
type (
	// FaultConfig parameterizes the deterministic fault injector: task
	// failure and straggler probabilities plus resource outage processes.
	FaultConfig = faults.Config
	// FaultInjector supplies a fault plan to the simulator.
	FaultInjector = sim.FaultInjector
	// AttemptFault is the injected fate of one task execution attempt.
	AttemptFault = sim.AttemptFault
	// Outage is one planned resource outage window.
	Outage = sim.Outage
)

// NewFaultPlan builds the standard deterministic injector. The plan is a
// pure function of the config: the same seeds yield the same task fates
// and outage windows regardless of the manager under test.
func NewFaultPlan(cfg FaultConfig) (FaultInjector, error) { return faults.New(cfg) }

// SimulateWithFaults is Simulate with a fault injector installed. A nil
// injector behaves exactly like Simulate.
func SimulateWithFaults(cluster Cluster, rm ResourceManager, jobs []*Job, fi FaultInjector) (*Metrics, error) {
	return simulate(cluster, rm, jobs, fi, nil, 0, nil)
}

// Observability (telemetry core, solver search statistics).
type (
	// Telemetry is the process-wide telemetry handle: counters, gauges,
	// spans, and a structured JSONL event sink. A nil *Telemetry is inert
	// and adds no overhead, so instrumented code never branches on it.
	Telemetry = obs.Telemetry
	// SearchStats carries the CP solver's per-solve search counters
	// (nodes, backtracks, propagations, improvement passes, objective
	// timeline); available on every batch Schedule via Schedule.Search.
	SearchStats = cp.SearchStats
	// TelemetryReport is the digest obsreport renders from a JSONL stream.
	TelemetryReport = obs.Report
	// HistSnapshot is an immutable streaming-histogram snapshot with
	// quantile estimation (one-bucket-width accuracy, factor sqrt 2).
	HistSnapshot = obs.HistSnapshot
	// PromScrape is the parsed content of one Prometheus text exposition
	// payload (counters/gauges plus reconstructed histogram families).
	PromScrape = obs.PromScrape
	// PromHist is one scraped Prometheus histogram family.
	PromHist = obs.PromHist
)

// NewJSONLTelemetry returns a telemetry handle that streams events to w as
// JSON Lines. Call Flush (or EmitSummary then Flush) when the run ends.
func NewJSONLTelemetry(w io.Writer) *Telemetry { return obs.New(obs.NewJSONLWriter(w)) }

// NewRegistryTelemetry returns a telemetry handle with live counter, gauge,
// and histogram registries but no event stream — the mrcpd default, so the
// Prometheus endpoint serves histograms even without a -telemetry file.
func NewRegistryTelemetry() *Telemetry { return obs.New(obs.DiscardSink{}) }

// ParsePrometheus parses Prometheus text exposition format 0.0.4, strictly
// enough to double as a well-formedness assertion in CI.
func ParsePrometheus(r io.Reader) (*PromScrape, error) { return obs.ParsePrometheus(r) }

// ReadTelemetryReport digests a telemetry JSONL stream into a report
// (solve-latency percentiles, solve-limit hit rate, objective convergence,
// sim time-series envelope).
func ReadTelemetryReport(r io.Reader) (*TelemetryReport, error) { return obs.ReadReport(r) }

// SimulateInstrumented is the widest run: SimulateTraced with an optional
// fault injector and a telemetry stream attached to the simulator and, when
// rm supports it (MRCP-RM does), to the resource manager. sampleEveryMS sets
// the sim time-series cadence (<=0 selects the 5 s default). After the run it
// emits the counter summary (stamped at the run's makespan) and flushes the
// sink. A nil tel attaches nothing; a nil injector means fault-free.
func SimulateInstrumented(cluster Cluster, rm ResourceManager, jobs []*Job,
	fi FaultInjector, tel *Telemetry, sampleEveryMS int64) (*Metrics, *TraceRecorder, error) {
	rec := trace.NewRecorder()
	m, err := simulate(cluster, rm, jobs, fi, tel, sampleEveryMS, rec)
	return m, rec, err
}

// simulate is SimulateInstrumented with the recorder rec attached only when
// it is not nil.
func simulate(cluster Cluster, rm ResourceManager, jobs []*Job,
	fi FaultInjector, tel *Telemetry, sampleEveryMS int64, rec *TraceRecorder) (*Metrics, error) {
	s, err := sim.New(cluster, rm, jobs)
	if err != nil {
		return nil, err
	}
	if fi != nil {
		if err := s.SetFaultInjector(fi); err != nil {
			return nil, err
		}
	}
	if tel.Enabled() {
		s.SetTelemetry(tel, sampleEveryMS)
		if im, ok := rm.(interface{ SetTelemetry(*Telemetry) }); ok {
			im.SetTelemetry(tel)
		}
	}
	if rec != nil {
		s.AddObserver(rec)
	}
	m, err := s.Run()
	if tel.Enabled() && m != nil {
		tel.EmitSummary(m.MakespanMS)
		tel.Flush()
	}
	return m, err
}

// Online scheduling service (the engine behind each shard of cmd/mrcpd).
type (
	// ServiceConfig assembles one online scheduling engine; a ShardConfig
	// carries it as the per-shard template.
	ServiceConfig = service.Config
	// ServiceMode selects virtual or wall-clock pacing.
	ServiceMode = service.Mode
	// ServiceJobStatus is the queryable view of one submission.
	ServiceJobStatus = service.JobStatus
	// ServiceSnapshot is the /v1/metrics payload: a router's fleet
	// aggregates in the flat fields plus the per-shard breakdown in Shards.
	ServiceSnapshot = service.Snapshot
	// ShardView is one shard's slice of an aggregated snapshot.
	ShardView = service.ShardView
	// JobSpec is the wire representation of a job submission.
	JobSpec = workload.JobSpec
	// AdmissionError reports a provably infeasible submission.
	AdmissionError = core.AdmissionError
	// ServiceOverloadError reports a submission shed by the MaxPending
	// backpressure bound, carrying the queue state and a retry hint.
	ServiceOverloadError = service.OverloadError
	// ServiceFaultSpec is the journalable per-attempt fault plan installed
	// through ShardRouter.ApplyFaults.
	ServiceFaultSpec = service.FaultSpec
	// SLOConfig tunes the deadline-miss attribution and burn monitor
	// (miss budget, sliding window, trace ring size).
	SLOConfig = slo.Config
	// SLOBurnInfo is a point-in-time view of the miss-budget burn monitor.
	SLOBurnInfo = slo.BurnInfo
	// SLOTraceEvent is one entry in a job's lifecycle timeline.
	SLOTraceEvent = slo.TraceEvent
)

// Service clock modes.
const (
	ServiceVirtual = service.Virtual
	ServiceWall    = service.Wall
)

// Service sentinel errors.
var (
	// ErrServiceClosed means intake has been closed to new submissions, or
	// the run has ended.
	ErrServiceClosed = service.ErrClosed
	// ErrServiceRunning means Start was called on a running engine.
	ErrServiceRunning = service.ErrRunning
	// ErrServiceStopped means the run was aborted by Stop.
	ErrServiceStopped = service.ErrStopped
	// ErrServiceOverloaded means the submission was shed by the MaxPending
	// bound; errors.As yields the *ServiceOverloadError with the details.
	ErrServiceOverloaded = service.ErrOverloaded
	// ErrServiceJournal means a write-ahead-journal append failed; the
	// submission was not accepted.
	ErrServiceJournal = service.ErrJournal
	// ErrServiceFinished means a fault switch or an outage came after the
	// run ended; nothing was journaled or applied.
	ErrServiceFinished = service.ErrFinished
)

// JobSpecOf captures a job as a submission spec for the service API.
func JobSpecOf(j *Job) JobSpec { return workload.SpecOf(j) }

// Sharded service: the admission router mrcpd serves at every -shards
// value (an unsharded daemon is the N=1 router).
type (
	// ShardConfig assembles a router over N >= 1 per-shard engines.
	ShardConfig = shard.Config
	// ShardRouter fronts N independent scheduler shards with deterministic
	// feasibility-then-load admission routing. A job is routed once and
	// never moves: its global ID is local*N + shard for good.
	ShardRouter = shard.Router
	// ShardRecoveryInfo aggregates what RecoverShardRouter replayed across
	// the per-shard journal segments.
	ShardRecoveryInfo = shard.RecoveryInfo
)

// NewShardRouter partitions the cluster and builds one engine per shard;
// call Start to launch every shard's run loop.
func NewShardRouter(cfg ShardConfig) (*ShardRouter, error) { return shard.New(cfg) }

// RecoverShardRouter rebuilds a router from its N journal segments
// (ShardJournalPath(Base.JournalPath, 0..N-1)), replaying every journaled
// submission, fault switch, outage and intake close; a missing segment is
// an error. Start the returned router to run the recovered streams; in
// virtual mode with DeterministicConfig solver settings the fingerprint is
// bit-identical to the uninterrupted run's.
func RecoverShardRouter(cfg ShardConfig) (*ShardRouter, *ShardRecoveryInfo, error) {
	return shard.Recover(cfg)
}

// NewServiceHandler exposes a router over HTTP/JSON (the cmd/mrcpd API).
func NewServiceHandler(r *ShardRouter) http.Handler { return shard.NewHandler(r) }

// ShardJournalPath names shard i's write-ahead journal segment under a
// base path.
func ShardJournalPath(base string, i int) string { return shard.SegmentPath(base, i) }

// PartitionCluster splits a cluster into n disjoint shards (the first
// NumResources%n shards absorb the remainder).
func PartitionCluster(c Cluster, n int) ([]Cluster, error) { return shard.Partition(c, n) }

// CombineShardFingerprints folds per-shard run fingerprints (in shard
// order) into the aggregate fingerprint the sharded /v1/metrics reports.
func CombineShardFingerprints(fps []uint64) uint64 { return shard.CombineFingerprints(fps) }

// TwoClassCluster builds the canonical heterogeneity experiment spec: m
// machines where the first half run at speed 1.0 and the second half at
// 1/spread (spread >= 1; 1.0 yields a uniform cluster).
func TwoClassCluster(m int, mapSlots, reduceSlots int64, spread float64) ClusterSpec {
	return core.TwoClassSpec(m, mapSlots, reduceSlots, spread)
}

// ScaledExec returns the effective running time of a task with nominal
// execution time exec on a machine with the given speed factor (ceiling,
// minimum 1 ms; speed 1.0 returns exec unchanged).
func ScaledExec(exec int64, speed float64) int64 { return sim.ScaledExec(exec, speed) }

// CheckAdmission is the service's fast lower-bound feasibility test: a
// non-nil *AdmissionError means the job provably cannot meet its deadline
// on the cluster even with every slot idle.
func CheckAdmission(cluster Cluster, j *Job, now int64) error {
	return core.CheckAdmission(cluster, j, now)
}

// Stream is a deterministic random number stream.
type Stream = stats.Stream

// NewStream returns a deterministic random stream for the given seed.
func NewStream(seed1, seed2 uint64) *Stream { return stats.NewStream(seed1, seed2) }

// DefaultSyntheticWorkload returns Table 3 with every factor at its
// default (boldface) value.
func DefaultSyntheticWorkload() SyntheticWorkload { return workload.DefaultSynthetic() }

// DefaultFacebookWorkload returns the Section VI.B.1 comparison workload.
func DefaultFacebookWorkload() FacebookWorkload { return workload.DefaultFacebook() }

// DefaultConfig returns the MRCP-RM configuration used by the experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// DeterministicConfig returns DefaultConfig with the wall-clock-dependent
// solver knob pinned (no solve time limit, node-budget bound), so identical
// job streams produce byte-identical schedules — the setting journal-replay
// recovery and fingerprint verification require.
func DeterministicConfig() Config { return core.DeterministicConfig() }

// NewManager creates an MRCP-RM resource manager for the cluster.
func NewManager(cluster Cluster, cfg Config) *Manager { return core.New(cluster, cfg) }

// NewMinEDF creates the MinEDF-WC baseline resource manager.
func NewMinEDF(cluster Cluster) ResourceManager { return minedf.New(cluster) }

// NewFIFO creates the deadline-blind best-effort baseline.
func NewFIFO(cluster Cluster) ResourceManager { return fifo.New(cluster) }

// Policy registry (internal/rmkit): every resource-management policy
// registers itself under a selection name, and entry points construct
// managers by that name — adding a policy requires no edits outside its own
// package.
type (
	// PolicyOptions carries the policy-agnostic construction knobs; policy
	// specific configuration (e.g. Config for "mrcp") travels in Extra.
	PolicyOptions = rmkit.Options
	// RetryPolicy is the canonical fault-recovery budget every policy
	// honors: a per-task retry cap and an optional per-job retry budget.
	RetryPolicy = rmkit.RetryPolicy
)

// DefaultRetryPolicy returns the retry budgets every policy starts from.
func DefaultRetryPolicy() RetryPolicy { return rmkit.DefaultRetryPolicy() }

// NewPolicy constructs a registered policy's manager by name ("mrcp",
// "minedf", "fifo", "edf", ...). An unknown name's error lists every
// registered policy.
func NewPolicy(name string, cluster Cluster, opts PolicyOptions) (ResourceManager, error) {
	return rmkit.New(name, cluster, opts)
}

// PolicyNames returns every registered policy name, sorted.
func PolicyNames() []string { return rmkit.Names() }

// Simulate runs the job stream against the cluster under the manager and
// returns the collected metrics.
func Simulate(cluster Cluster, rm ResourceManager, jobs []*Job) (*Metrics, error) {
	return SimulateWithFaults(cluster, rm, jobs, nil)
}

// SolveBatch maps and schedules a fixed batch of jobs in one shot (the
// closed-system scenario), minimizing the number of late jobs.
func SolveBatch(cluster Cluster, jobs []*Job, cfg Config) (*Schedule, error) {
	return core.SolveBatch(cluster, jobs, cfg)
}

// TraceRecorder records every task start/finish of a run; it exports CSV
// or JSON and digests slot-occupancy profiles.
type TraceRecorder = trace.Recorder

// SimulateTraced is Simulate with schedule tracing attached.
func SimulateTraced(cluster Cluster, rm ResourceManager, jobs []*Job) (*Metrics, *TraceRecorder, error) {
	return SimulateInstrumented(cluster, rm, jobs, nil, nil, 0)
}

// Experiments lists every registered experiment in paper order.
func Experiments() []Experiment { return experiment.Registry }

// ExperimentByID looks up one experiment ("fig2".."fig9", "ablation-...").
func ExperimentByID(id string) (Experiment, bool) { return experiment.ByID(id) }

// DefaultExperimentOptions sizes a full-quality experiment run.
func DefaultExperimentOptions() ExperimentOptions { return experiment.DefaultOptions() }

// FastExperimentOptions sizes a quick (benchmark/CI) experiment run.
func FastExperimentOptions() ExperimentOptions { return experiment.FastOptions() }
