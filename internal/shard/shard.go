// Package shard is the online scheduling service's one front end: it
// partitions the cluster into N >= 1 disjoint shards, runs one full
// service.Engine per shard (each with its own journal segment and SLO
// monitor, all on the caller's one telemetry handle), and fronts them with
// a deterministic admission router. An unsharded service is the N=1
// router.
//
// Placement is feasibility-then-load: a submission is offered only to
// shards whose capacity can fit its SLA window (core.SLALowerBound against
// the shard's partition), and among those the least-loaded shard — by its
// engine's pending work ms (service.Engine.PendingWork) — wins, with a
// seeded hash breaking ties so the same seed and submission stream always
// produce the same shard assignments (the loadgen replay contract, now per
// shard).
// Only when every feasible shard sheds does the router reject, with the
// same typed overload error one engine returns.
//
// A job's shard is arithmetic: it is routed once, at submission, and never
// moves. A job accepted by shard s with engine-local ID l is externally job
// l*N + s forever, so gid%N is its home shard and gid/N its local ID — the
// read paths (Job, Jobs, Schedule, Trace) resolve IDs without any shared
// state or lock.
package shard

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/obs"
	"mrcprm/internal/service"
	"mrcprm/internal/sim"
	"mrcprm/internal/slo"
	"mrcprm/internal/workload"
)

// Config assembles a sharded router.
type Config struct {
	// Base is the per-shard engine template. Cluster is the FULL cluster
	// (Partition splits it); JournalPath is the base path (each shard
	// appends to JournalPath+".shard<i>", at every N); MaxPending applies
	// per shard (split a global bound before constructing the Config).
	// Telemetry is shared by the router and every engine: one sink, one
	// registry, so counters and histograms add up across shards by
	// themselves.
	Base service.Config
	// Shards is the partition count N (>= 1; at most Cluster.NumResources).
	Shards int
	// Seed feeds the deterministic placement tie-break.
	Seed uint64
}

// SegmentPath names shard i's journal segment under a base path.
func SegmentPath(base string, i int) string {
	return fmt.Sprintf("%s.shard%d", base, i)
}

// Partition splits a cluster into n disjoint shards: each gets
// NumResources/n resources (the first NumResources%n shards get one
// extra), with the per-resource slot shape unchanged. Heterogeneous
// clusters partition positionally — shard i owns the speed factors of its
// contiguous resource range — and the memory capacity carries over to
// every shard.
func Partition(c sim.Cluster, n int) ([]sim.Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if n > c.NumResources {
		return nil, fmt.Errorf("shard: %d shards over %d resources leaves empty shards", n, c.NumResources)
	}
	parts := make([]sim.Cluster, n)
	base, rem := c.NumResources/n, c.NumResources%n
	off := 0
	for i := range parts {
		size := base
		if i < rem {
			size++
		}
		parts[i] = sim.Cluster{
			NumResources: size,
			MapSlots:     c.MapSlots,
			ReduceSlots:  c.ReduceSlots,
			MemCapacity:  c.MemCapacity,
		}
		if len(c.Speed) > 0 {
			parts[i].Speed = append([]float64(nil), c.Speed[off:off+size]...)
		}
		off += size
	}
	return parts, nil
}

// Router fronts N per-shard engines with deterministic admission routing.
type Router struct {
	cfg     Config
	n       int
	parts   []sim.Cluster
	offsets []int // global index of each shard's first resource
	engines []*service.Engine
	tel     *obs.Telemetry

	// mu guards the routing state (seq, closed, started) — never the read
	// paths, which resolve global IDs arithmetically, nor Metrics. Routing
	// calls engine intake methods under it (router mu -> engine intakeMu);
	// never call an engine method that takes the engine's sim lock while
	// holding mu.
	mu sync.Mutex
	// seq numbers Submit calls for the placement tie-break.
	seq    uint64
	closed bool

	done    chan struct{}
	started bool
}

// New partitions the cluster and builds one engine per shard; no goroutine
// runs until Start.
func New(cfg Config) (*Router, error) {
	r, parts, err := newRouter(cfg)
	if err != nil {
		return nil, err
	}
	for s := range parts {
		e, err := service.New(r.shardEngineConfig(s))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		r.engines[s] = e
	}
	return r, nil
}

// newRouter builds the engine-less router skeleton shared by New and
// Recover.
func newRouter(cfg Config) (*Router, []sim.Cluster, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	parts, err := Partition(cfg.Base.Cluster, cfg.Shards)
	if err != nil {
		return nil, nil, err
	}
	offsets := make([]int, len(parts))
	for i := 1; i < len(parts); i++ {
		offsets[i] = offsets[i-1] + parts[i-1].NumResources
	}
	r := &Router{
		cfg:     cfg,
		n:       cfg.Shards,
		parts:   parts,
		offsets: offsets,
		engines: make([]*service.Engine, cfg.Shards),
		tel:     cfg.Base.Telemetry,
		done:    make(chan struct{}),
	}
	return r, parts, nil
}

// shardEngineConfig derives shard s's engine config from the base: its
// partition of the cluster and its journal segment.
func (r *Router) shardEngineConfig(s int) service.Config {
	sc := r.cfg.Base
	sc.Cluster = r.parts[s]
	if base := r.cfg.Base.JournalPath; base != "" {
		sc.JournalPath = SegmentPath(base, s)
	}
	return sc
}

// Shards returns the partition count.
func (r *Router) Shards() int { return r.n }

// Engine exposes shard s's engine (tests and recovery inspection).
func (r *Router) Engine(s int) *service.Engine { return r.engines[s] }

// mix is a splitmix64-style hash of (seed, submission sequence, shard):
// the placement tie-break. Any fixed bijective mixer works; it only has to
// be deterministic and spread ties evenly across shards.
func mix(seed, seq uint64, s int) uint64 {
	x := seed ^ (seq+1)*0x9e3779b97f4a7c15 ^ uint64(s+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// feasibleOn reports whether the spec's SLA window can fit on cluster c
// with nothing else running. Deliberately clock-free — the window length
// DeadlineMS - max(ArrivalMS, EarliestStartMS) is invariant under the wall
// mode restamp — so routing is a pure function of (seed, stream).
func feasibleOn(c sim.Cluster, j *workload.Job) bool {
	start := j.Arrival
	if j.EarliestStart > start {
		start = j.EarliestStart
	}
	return start+core.SLALowerBound(c, j) <= j.Deadline
}

// Submit routes one submission: feasibility-filter the shards, offer the
// job to candidates in (engine pending work, seeded tie-break) order, and return
// the job's global ID. Shard-level sheds fall through to the next
// candidate; only when every candidate sheds does Submit return one
// aggregated *service.OverloadError. A typed admission rejection
// (*core.AdmissionError) ends routing immediately — it is deterministic,
// so every other shard of equal capacity would reject too. The job built
// for the feasibility filter is the one the accepting engine binds to its
// ID and registers (service.Engine.SubmitJob): a POST builds its job once.
func (r *Router) Submit(spec workload.JobSpec) (int64, error) {
	if r.tel.Enabled() {
		defer func(start time.Time) {
			r.tel.Observe(obs.HistWallRoute, float64(time.Since(start).Nanoseconds())/1e6)
		}(time.Now())
	}
	probe, err := spec.Job(0)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, service.ErrClosed
	}
	seq := r.seq
	r.seq++
	type cand struct {
		s    int
		work int64
		tie  uint64
	}
	cands := make([]cand, 0, r.n)
	for s := 0; s < r.n; s++ {
		if feasibleOn(r.parts[s], probe) {
			cands = append(cands, cand{s: s, work: r.engines[s].PendingWork(), tie: mix(r.cfg.Seed, seq, s)})
		}
	}
	feasible := len(cands)
	if feasible == 0 {
		// No shard can fit the window: route to every shard anyway so the
		// least-loaded one produces the typed 422 (consuming a global ID,
		// as an engine does).
		for s := 0; s < r.n; s++ {
			cands = append(cands, cand{s: s, work: r.engines[s].PendingWork(), tie: mix(r.cfg.Seed, seq, s)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].work != cands[b].work {
			return cands[a].work < cands[b].work
		}
		if cands[a].tie != cands[b].tie {
			return cands[a].tie < cands[b].tie
		}
		return cands[a].s < cands[b].s
	})
	var (
		sheds      []*service.OverloadError
		lastClosed error
	)
	for _, c := range cands {
		id, err := r.engines[c.s].SubmitJob(spec, probe)
		var oe *service.OverloadError
		switch {
		case err == nil:
			gid := r.gid(c.s, id)
			if r.tel.Enabled() { // NowMS and PendingWork take the engine's intake lock
				r.tel.Add(obs.CounterShardRouted, 1)
				r.tel.Emit(r.engines[c.s].NowMS(), obs.LayerShard, "route",
					obs.I64("job", gid), obs.I64("shard", int64(c.s)),
					obs.I64("feasible", int64(feasible)), obs.I64("workMs", r.engines[c.s].PendingWork()))
			}
			return gid, nil
		case errors.As(err, &oe):
			sheds = append(sheds, oe)
		case errors.Is(err, service.ErrClosed):
			lastClosed = err
		default:
			gid := r.gid(c.s, id)
			var ae *core.AdmissionError
			if errors.As(err, &ae) {
				// The engine minted a fresh error for this submission;
				// surface the global ID in it.
				ae.JobID = int(gid)
				if r.tel.Enabled() {
					r.tel.Add(obs.CounterShardRejected, 1)
					r.tel.Emit(r.engines[c.s].NowMS(), obs.LayerShard, "reject",
						obs.I64("job", gid), obs.I64("shard", int64(c.s)))
				}
				return gid, err
			}
			return 0, err // journal failure or malformed spec: not retryable elsewhere
		}
	}
	if len(sheds) > 0 {
		agg := &service.OverloadError{RetryAfter: sheds[0].RetryAfter}
		for _, oe := range sheds {
			agg.Pending += oe.Pending
			agg.Max += oe.Max
			if oe.RetryAfter < agg.RetryAfter {
				agg.RetryAfter = oe.RetryAfter
			}
		}
		r.tel.Add(obs.CounterShardRejected, 1)
		return 0, agg
	}
	if lastClosed != nil {
		return 0, lastClosed
	}
	return 0, service.ErrClosed
}

// gid is the global ID of shard s's engine-local job: local*N + s.
func (r *Router) gid(s, local int) int64 {
	return int64(local)*int64(r.n) + int64(s)
}

// home inverts gid: the engine that owns a global ID and the job's local ID
// there. ok is false for a negative ID.
func (r *Router) home(gid int64) (e *service.Engine, local int, ok bool) {
	if gid < 0 {
		return nil, 0, false
	}
	return r.engines[gid%int64(r.n)], int(gid / int64(r.n)), true
}

// Job returns one submission's status under its global ID.
func (r *Router) Job(gid int64) (service.JobStatus, bool) {
	e, local, ok := r.home(gid)
	if !ok {
		return service.JobStatus{}, false
	}
	st, ok := e.Job(local)
	if !ok {
		return service.JobStatus{}, false
	}
	st.ID = int(gid)
	return st, true
}

// Trace returns one job's lifecycle timeline from its home shard's monitor.
func (r *Router) Trace(gid int64) (events []slo.TraceEvent, dropped int, ok bool) {
	e, local, ok := r.home(gid)
	if !ok {
		return nil, 0, false
	}
	return e.Trace(local)
}

// Jobs lists every submission across all shards in global-ID order.
func (r *Router) Jobs() []service.JobStatus {
	var out []service.JobStatus
	for s := 0; s < r.n; s++ {
		for _, st := range r.engines[s].Jobs() {
			st.ID = int(r.gid(s, st.ID))
			out = append(out, st)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Schedule merges every shard's placement plan into one global view: job
// IDs become global and resource indices are offset to the full cluster's
// numbering.
func (r *Router) Schedule() []service.TaskPlacement {
	var out []service.TaskPlacement
	for s := 0; s < r.n; s++ {
		off := r.offsets[s]
		for _, p := range r.engines[s].Schedule() {
			p.JobID = int(r.gid(s, p.JobID))
			p.Resource += off
			out = append(out, p)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].StartMS != out[b].StartMS {
			return out[a].StartMS < out[b].StartMS
		}
		if out[a].JobID != out[b].JobID {
			return out[a].JobID < out[b].JobID
		}
		return out[a].Task < out[b].Task
	})
	return out
}

// Start launches every shard's run loop and the completion watcher behind
// Done.
func (r *Router) Start() error {
	if !r.claimStart() {
		return service.ErrRunning
	}
	for s, e := range r.engines {
		if err := e.Start(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	go r.watch()
	return nil
}

// claimStart marks the router started, reporting whether this call did so.
func (r *Router) claimStart() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return false
	}
	r.started = true
	return true
}

// watch closes Done once every shard's run loop has exited.
func (r *Router) watch() {
	for _, e := range r.engines {
		<-e.Done()
	}
	close(r.done)
}

// CloseIntake stops accepting submissions on every shard.
func (r *Router) CloseIntake() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	for _, e := range r.engines {
		e.CloseIntake()
	}
}

// Stop aborts every shard without finishing outstanding work. Stopping a
// router that was never started ends its run before Stop returns; a later
// Start returns ErrRunning.
func (r *Router) Stop() {
	for _, e := range r.engines {
		e.Stop()
	}
	if r.claimStart() {
		// No Start means no watcher to close Done; the engines ended their
		// runs inside Stop above, so this returns at once.
		r.watch()
	}
}

// Done closes once every shard's run loop has exited.
func (r *Router) Done() <-chan struct{} { return r.done }

// Wait blocks until every shard's run ends and returns the first error.
func (r *Router) Wait() error {
	var first error
	for _, e := range r.engines {
		if err := e.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NowMS returns the most advanced shard clock.
func (r *Router) NowMS() int64 {
	var now int64
	for _, e := range r.engines {
		if t := e.NowMS(); t > now {
			now = t
		}
	}
	return now
}

// Health aggregates the shards' lock-light run states: running if any shard
// is, finished and closed once every shard is.
func (r *Router) Health() service.Health {
	h := r.engines[0].Health()
	for _, e := range r.engines[1:] {
		eh := e.Health()
		h.Running = h.Running || eh.Running
		h.Finished = h.Finished && eh.Finished
		h.Closed = h.Closed && eh.Closed
	}
	return h
}

// ApplyFaults installs the same journaled per-attempt fault plan on every
// shard whose run has not ended (each segment journals its own copy); it
// returns service.ErrFinished when every shard's run has.
func (r *Router) ApplyFaults(spec service.FaultSpec) error {
	finished := 0
	for s, e := range r.engines {
		switch err := e.ApplyFaults(spec); {
		case errors.Is(err, service.ErrFinished):
			finished++
		case err != nil:
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	if finished == r.n {
		return service.ErrFinished
	}
	return nil
}

// InjectOutage schedules an outage for a GLOBAL resource index on the
// shard that owns it and returns the window that shard scheduled.
func (r *Router) InjectOutage(res int, downAt, upAt int64) (int64, int64, error) {
	for s := r.n - 1; s >= 0; s-- {
		if res >= r.offsets[s] {
			if res >= r.offsets[s]+r.parts[s].NumResources {
				break
			}
			return r.engines[s].InjectOutage(res-r.offsets[s], downAt, upAt)
		}
	}
	return 0, 0, fmt.Errorf("shard: resource %d out of range", res)
}

// Snapshot is the sharded /v1/metrics payload: the service snapshot with
// fleet aggregates in its flat fields and the per-shard breakdown in Shards.
type Snapshot = service.Snapshot

// fnv1aOffset/fnv1aPrime are the 64-bit FNV-1a parameters used to combine
// per-shard fingerprints into the aggregate one.
const (
	fnv1aOffset = 1469598103934665603
	fnv1aPrime  = 1099511628211
)

// CombineFingerprints folds per-shard fingerprints (in shard order) into
// one aggregate fingerprint: FNV-1a over their little-endian bytes.
// Exported so loadgen -verify can recompute it from an offline replay.
func CombineFingerprints(fps []uint64) uint64 {
	h := uint64(fnv1aOffset)
	for _, fp := range fps {
		for i := 0; i < 8; i++ {
			h ^= (fp >> (8 * i)) & 0xff
			h *= fnv1aPrime
		}
	}
	return h
}

// Metrics returns the aggregated snapshot with the per-shard breakdown; it
// takes no router lock, so it never waits behind a Submit's journal fsync.
func (r *Router) Metrics() Snapshot {
	views := make([]service.ShardView, r.n)
	var burns []slo.BurnInfo
	agg := Snapshot{}
	for s := 0; s < r.n; s++ {
		snap := r.engines[s].Metrics()
		views[s] = service.ShardView{
			Shard:         s,
			Cluster:       r.parts[s],
			ManagerConfig: r.cfg.Base.Manager,
			FirstResource: r.offsets[s],
			PendingWorkMS: r.engines[s].PendingWork(),
			Snapshot:      snap,
		}
		if s == 0 {
			agg.Mode, agg.Policy = snap.Mode, snap.Policy
			agg.Running, agg.Finished, agg.Closed = snap.Running, snap.Finished, snap.Closed
		} else {
			agg.Running = agg.Running || snap.Running
			agg.Finished = agg.Finished && snap.Finished
			agg.Closed = agg.Closed && snap.Closed
		}
		if snap.SimTimeMS > agg.SimTimeMS {
			agg.SimTimeMS = snap.SimTimeMS
		}
		agg.Submitted += snap.Submitted
		agg.Rejected += snap.Rejected
		agg.Shed += snap.Shed
		agg.Pending += snap.Pending
		agg.MaxPending += snap.MaxPending
		agg.JobsArrived += snap.JobsArrived
		agg.JobsCompleted += snap.JobsCompleted
		agg.LateJobs += snap.LateJobs
		agg.JobsAbandoned += snap.JobsAbandoned
		agg.Outstanding += snap.Outstanding
		agg.TasksFailed += snap.TasksFailed
		agg.TasksKilled += snap.TasksKilled
		agg.Outages += snap.Outages
		for class, v := range snap.MissByClass {
			if agg.MissByClass == nil {
				agg.MissByClass = make(map[string]int64)
			}
			agg.MissByClass[class] += v
		}
		if snap.SLO != nil {
			burns = append(burns, *snap.SLO)
		}
	}
	agg.Counters = r.tel.Snapshot()
	agg.Journal = r.cfg.Base.JournalPath
	if agg.Finished {
		fps := make([]uint64, r.n)
		for s := 0; s < r.n; s++ {
			if m, err := r.engines[s].Result(); err == nil && m != nil {
				fps[s] = m.Fingerprint()
			}
		}
		agg.Fingerprint = fmt.Sprintf("%016x", CombineFingerprints(fps))
	}
	if len(burns) > 0 {
		b := mergeBurn(burns)
		agg.SLO = &b
	}
	agg.Shards = views
	return agg
}

// mergeBurn aggregates per-shard burn windows: finishes and misses sum,
// the rate is recomputed, and the alarm trips on the aggregate rate or any
// single burning shard (a hot shard is a problem even when the fleet
// average looks fine).
func mergeBurn(burns []slo.BurnInfo) slo.BurnInfo {
	out := burns[0]
	out.Finished, out.Missed = 0, 0
	anyBurning := false
	for _, b := range burns {
		out.Finished += b.Finished
		out.Missed += b.Missed
		anyBurning = anyBurning || b.Burning
	}
	out.MissRate, out.BurnRate = 0, 0
	if out.Finished > 0 {
		out.MissRate = float64(out.Missed) / float64(out.Finished)
		if out.MissBudget > 0 {
			out.BurnRate = out.MissRate / out.MissBudget
		}
	}
	out.Burning = anyBurning || (out.Finished >= out.MinSample && out.MissRate > out.MissBudget)
	return out
}

// WriteProm renders ONE Prometheus exposition for the whole fleet: the
// snapshot Metrics returns — the shared registry plus the fleet aggregates,
// burn included — and the registry's histograms.
func (r *Router) WriteProm(w io.Writer) error {
	return service.WriteProm(w, r.Metrics(), r.tel.HistSnapshots())
}

// String implements fmt.Stringer for logs.
func (r *Router) String() string {
	return fmt.Sprintf("shard.Router(%d shards over %d resources)", r.n, r.cfg.Base.Cluster.NumResources)
}
