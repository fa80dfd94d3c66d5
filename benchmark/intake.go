package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/obs"
	"mrcprm/internal/rmkit"
	"mrcprm/internal/service"
	"mrcprm/internal/shard"
	"mrcprm/internal/sim"
	"mrcprm/internal/wal"
	"mrcprm/internal/workload"
)

// timedFIFOPolicy is the FIFO policy behind the timing decorator,
// registered under its own name: a sharded router builds one manager per
// shard from the registry, so a pre-built decorator cannot be handed in.
const timedFIFOPolicy = "bench-timed-fifo"

// timedFIFOs collects the decorators the registry factory built, so a run
// can read their clocks afterwards.
var timedFIFOs struct {
	mu   sync.Mutex
	made []*timedRM
}

func init() {
	rmkit.Register(timedFIFOPolicy, func(cluster sim.Cluster, opts rmkit.Options) (sim.ResourceManager, error) {
		inner, err := rmkit.New("fifo", cluster, opts)
		if err != nil {
			return nil, err
		}
		t := &timedRM{inner: inner}
		timedFIFOs.mu.Lock()
		timedFIFOs.made = append(timedFIFOs.made, t)
		timedFIFOs.mu.Unlock()
		return t, nil
	})
}

func takeTimedFIFOs() []*timedRM {
	timedFIFOs.mu.Lock()
	defer timedFIFOs.mu.Unlock()
	made := timedFIFOs.made
	timedFIFOs.made = nil
	return made
}

// intakeSpec is the service path with CP bypassed: every job is POSTed
// through the sharded router's HTTP handler (driven in memory, no sockets)
// before the run starts, then the run is started, closed and drained.
type intakeSpec struct {
	gen    workload.SyntheticConfig // NumResources sizes jobs for ONE shard's slice
	jobs   int
	shards int
	rngTag uint64
	tmp    string // directory for journal segments
}

func (sp intakeSpec) scaled(div int) intakeSpec {
	sp.jobs = max(sp.jobs/div, 20)
	return sp
}

func (sp intakeSpec) size() string {
	return fmt.Sprintf("jobs=%d shards=%d m=%dx%d policy=fifo admission=on journal=on sync=none",
		sp.jobs, sp.shards, sp.shards, sp.gen.NumResources)
}

// fullCluster is the whole cluster the router partitions: one generator
// slice per shard.
func (sp intakeSpec) fullCluster() sim.Cluster {
	c, _ := uniformCluster(sp.gen)
	c.NumResources *= sp.shards
	return c
}

func (sp intakeSpec) generate(seed uint64) ([]*workload.Job, error) {
	return generate(sp.gen, sp.jobs, sp.rngTag, seed)
}

func (sp intakeSpec) baseConfig(journal string, tel *obs.Telemetry) service.Config {
	return service.Config{
		Cluster:     sp.fullCluster(),
		Policy:      timedFIFOPolicy,
		Mode:        service.Virtual,
		Admission:   true,
		JournalPath: journal,
		JournalSync: "none", // fsync on a shared sandbox disk is not this host's to report
		Telemetry:   tel,
	}
}

// routedRun is what the offline-replay check needs from a repetition.
type routedRun struct {
	gids     []int64
	shardFPs []uint64
}

func postRequest(path string, body []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

func (sp intakeSpec) runRep(seed uint64, traced bool) (*rep, error) {
	r := &rep{attempted: 2 * sp.jobs}

	t0 := time.Now()
	jobs, err := sp.generate(seed)
	if err != nil {
		return nil, err
	}
	genWall := time.Since(t0)
	dir, err := os.MkdirTemp(sp.tmp, "intake-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	var sink *benchSink
	var tel *obs.Telemetry
	if traced {
		tr = newTracer(2*sp.jobs + 16)
		sink = newBenchSink()
		tel = obs.New(sink)
	}
	takeTimedFIFOs()
	journal := filepath.Join(dir, "run.wal")
	router, err := shard.New(shard.Config{Base: sp.baseConfig(journal, tel), Shards: sp.shards, Seed: seed})
	if err != nil {
		return nil, err
	}
	handler := shard.NewHandler(router)
	// Encoding the body and building the request are the client's work, so
	// both happen here, before the first timed call.
	reqs := make([]*http.Request, len(jobs))
	recs := make([]*httptest.ResponseRecorder, len(jobs))
	for i, j := range jobs {
		body, err := json.Marshal(workload.SpecOf(j))
		if err != nil {
			return nil, err
		}
		reqs[i], recs[i] = postRequest("/v1/jobs", body), httptest.NewRecorder()
	}
	runReq, runRec := postRequest("/v1/admin/run", []byte(`{"close":true}`)), httptest.NewRecorder()
	r.setup = time.Since(t0)

	runtime.GC()
	mem0 := readMem()
	r.ops = make([]time.Duration, len(jobs))
	if traced {
		tr.begin(spanRun, 0)
	}
	t1 := time.Now()
	for i := range reqs {
		if traced {
			tr.begin(spanPost, int64(i))
		}
		s := time.Now()
		handler.ServeHTTP(recs[i], reqs[i])
		r.ops[i] = time.Since(s)
		if traced {
			tr.end()
		}
	}
	r.submit = time.Since(t1)
	if traced {
		tr.begin(spanDrain, 0)
	}
	t2 := time.Now()
	handler.ServeHTTP(runRec, runReq)
	werr := router.Wait()
	r.run = time.Since(t2)
	if traced {
		tr.end()
		tr.end()
	}
	r.mem = memSince(mem0)
	if werr != nil {
		return nil, werr
	}
	if runRec.Code != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/admin/run: status %d", runRec.Code)
	}

	rr := &routedRun{}
	accepted := 0
	for _, rec := range recs {
		var ack struct {
			ID int64 `json:"id"`
		}
		if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &ack) != nil {
			r.failed++
			rr.gids = append(rr.gids, -1)
			continue
		}
		accepted++
		rr.gids = append(rr.gids, ack.ID)
	}
	var arrived, completed, missed int
	var turnaroundMS int64
	for s := 0; s < sp.shards; s++ {
		m, err := router.Engine(s).Result()
		if err != nil || m == nil {
			return nil, fmt.Errorf("shard %d has no result: %v", s, err)
		}
		arrived += m.JobsArrived
		completed += m.JobsCompleted
		missed += m.LateJobs + m.JobsAbandoned
		for _, rec := range m.Records {
			turnaroundMS += rec.TurnaroundMS()
		}
		rr.shardFPs = append(rr.shardFPs, m.Fingerprint())
	}
	r.aux = rr
	r.jobs = completed
	r.failed += accepted - completed
	for _, t := range takeTimedFIFOs() {
		r.sched += t.busy
	}
	r.ontime = 1 - ratio(float64(missed), float64(arrived))
	r.turnaround = ratio(float64(turnaroundMS)/1000, float64(completed))
	r.fingerprint = shard.CombineFingerprints(rr.shardFPs)
	if !traced {
		return r, nil
	}

	snap := router.Metrics()
	L := map[string]float64{
		"workload.gen_s":   genWall.Seconds(),
		"workload.jobs":    float64(len(jobs)),
		"workload.tasks":   float64(countTasks(jobs)),
		"service.accepted": float64(snap.Submitted - snap.Rejected),
		"service.rejected": float64(snap.Rejected),
		"service.shed":     float64(snap.Shed),
		"shard.routed":     float64(snap.Counters[obs.CounterShardRouted]),
		"obs.events":       float64(sink.events),
		"slo.miss_total":   0,
	}
	lo, hi := -1, 0
	for _, v := range snap.Shards {
		n := v.Submitted - v.Rejected
		if lo < 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	L["shard.imbalance"] = ratio(float64(hi), float64(lo))
	for _, n := range snap.MissByClass {
		L["slo.miss_total"] += float64(n)
	}
	// The run's own journal records, re-appended to a scratch journal under
	// the same sync policy: the journal layer's share of a submission.
	var records [][]byte
	for s := 0; s < sp.shards; s++ {
		j, recs, err := wal.Open(shard.SegmentPath(journal, s), wal.Options{Sync: wal.SyncNever})
		if err != nil {
			return nil, err
		}
		j.Close()
		records = append(records, recs...)
	}
	appendWall, bytesN, err := timeAppends(filepath.Join(dir, "scratch.wal"), records, tr)
	if err != nil {
		return nil, err
	}
	L["wal.appends"] = float64(len(records))
	L["wal.bytes"] = float64(bytesN)
	L["wal.busy_s"] = sumDurations(appendWall).Seconds()
	L["wal.us_per_append"] = medianDuration(appendWall) / 1e3
	r.mem.layer(L)
	r.layer, r.spans = L, tr.spans
	return r, nil
}

// timeAppends appends every record to a fresh journal at path and returns
// the wall time of each Append and the payload bytes written.
func timeAppends(path string, records [][]byte, tr *tracer) ([]time.Duration, int, error) {
	j, _, err := wal.Open(path, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return nil, 0, err
	}
	defer os.Remove(path)
	walls := make([]time.Duration, len(records))
	n := 0
	for i, rec := range records {
		if tr != nil {
			tr.begin(spanAppend, int64(i))
		}
		s := time.Now()
		err := j.Append(rec)
		walls[i] = time.Since(s)
		if tr != nil {
			tr.end()
		}
		if err != nil {
			j.Close()
			return nil, 0, err
		}
		n += len(rec)
	}
	return walls, n, j.Close()
}

func sumDurations(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func medianDuration(ds []time.Duration) float64 {
	return medianOf(ds, func(d time.Duration) float64 { return float64(d) })
}

// check replays each shard's slice of the accepted stream offline through
// plain sim.Run under the unwrapped FIFO policy and requires the combined
// fingerprint to equal what the routed run served.
func (sp intakeSpec) check(seed uint64, r *rep) []string {
	rr := r.aux.(*routedRun)
	jobs, err := sp.generate(seed)
	if err != nil {
		return []string{err.Error()}
	}
	parts, err := shard.Partition(sp.fullCluster(), sp.shards)
	if err != nil {
		return []string{err.Error()}
	}
	slices := make([][]*workload.Job, sp.shards)
	for i, gid := range rr.gids {
		if gid < 0 {
			continue
		}
		// A global ID is local*N + shard; the replay uses the local ID the
		// shard's engine assigned.
		s := int(gid % int64(sp.shards))
		j, err := workload.SpecOf(jobs[i]).Job(int(gid / int64(sp.shards)))
		if err != nil {
			return []string{err.Error()}
		}
		slices[s] = append(slices[s], j)
	}
	var problems []string
	fps := make([]uint64, sp.shards)
	for s := range slices {
		rm, err := rmkit.New("fifo", parts[s], rmkit.Options{})
		if err != nil {
			return []string{err.Error()}
		}
		simr, err := sim.New(parts[s], rm, slices[s])
		if err != nil {
			return []string{err.Error()}
		}
		m, err := simr.Run()
		if err != nil {
			return []string{fmt.Sprintf("offline replay of shard %d: %v", s, err)}
		}
		fps[s] = m.Fingerprint()
		if fps[s] != rr.shardFPs[s] {
			problems = append(problems, fmt.Sprintf("shard %d served fingerprint %016x, offline replay %016x", s, rr.shardFPs[s], fps[s]))
		}
	}
	if c := shard.CombineFingerprints(fps); c != r.fingerprint {
		problems = append(problems, fmt.Sprintf("combined fingerprint %016x, offline replay %016x", r.fingerprint, c))
	}
	return problems
}

// twins separates the layers of the submission path, which cannot be told
// apart from outside in one run, by sending the same stream down shorter
// and shorter paths and subtracting medians:
//
//	POST handler - Router.Submit            = service.http_self_us
//	Router.Submit - Engine.Submit           = shard.route_self_us
//	Engine.Submit - admission - wal append  = service.submit_self_us
//
// and the drain by running the unsharded engine over the whole stream and
// replaying the same stream through a bare sim.Step loop:
//
//	engine drain - Step loop                = service.drain_self_s
//
// postNS is the routed run's median POST latency. The twins' spans are
// returned for the trace file.
func (sp intakeSpec) twins(seed uint64, postNS float64, L map[string]float64) ([]span, error) {
	jobs, err := sp.generate(seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(sp.tmp, "twins-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	specs := make([]workload.JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = workload.SpecOf(j)
	}
	tr := newTracer(8 * len(jobs))
	timed := func(name spanName, n int, f func(i int) error) ([]time.Duration, error) {
		walls := make([]time.Duration, n)
		for i := 0; i < n; i++ {
			tr.begin(name, int64(i))
			s := time.Now()
			err := f(i)
			walls[i] = time.Since(s)
			tr.end()
			if err != nil {
				return nil, fmt.Errorf("%v %d: %w", name, i, err)
			}
		}
		return walls, nil
	}

	// Router.Submit without the HTTP layer. The router is stopped before it
	// is started, so its run loops exit at once and close their journals.
	router, err := shard.New(shard.Config{
		Base: sp.baseConfig(filepath.Join(dir, "router.wal"), nil), Shards: sp.shards, Seed: seed})
	if err != nil {
		return nil, err
	}
	routeWalls, err := timed(spanRouteSubmit, len(specs), func(i int) error {
		_, err := router.Submit(specs[i])
		return err
	})
	router.Stop()
	if serr := router.Start(); serr == nil {
		_ = router.Wait() // ErrStopped by construction
	}
	if err != nil {
		return nil, err
	}
	takeTimedFIFOs()

	// Engine.Submit on one unsharded engine over the full cluster, then its
	// drain, with the resource manager behind the decorator.
	cluster := sp.fullCluster()
	fifoRM, err := rmkit.New("fifo", cluster, rmkit.Options{})
	if err != nil {
		return nil, err
	}
	// A shard's engine always carries a registry-only telemetry handle,
	// which turns the simulator's sampler on; the twins carry the same, or
	// they would skip the largest part of a shard's drain.
	cfg := sp.baseConfig(filepath.Join(dir, "engine.wal"), obs.New(obs.DiscardSink{}))
	cfg.Policy, cfg.RM = "", &timedRM{inner: fifoRM, tr: tr}
	engine, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	submitWalls, err := timed(spanEngSubmit, len(specs), func(i int) error {
		_, err := engine.Submit(specs[i])
		return err
	})
	if err != nil {
		engine.Stop()
		return nil, err
	}
	tr.begin(spanDrain, 0)
	t0 := time.Now()
	engine.CloseIntake()
	if err := engine.Start(); err != nil {
		return nil, err
	}
	werr := engine.Wait()
	drain := time.Since(t0)
	tr.end()
	if werr != nil {
		return nil, werr
	}
	served, _ := engine.Result()

	// The admission bound alone, at the instant the engine evaluates it.
	admitWalls, err := timed(spanAdmission, len(jobs), func(i int) error {
		return core.CheckAdmission(cluster, jobs[i], jobs[i].Arrival)
	})
	if err != nil {
		return nil, err
	}

	// The same stream through a bare Step loop: the simulator and policy
	// share of the drain, and the golden contract that a pre-submitted
	// virtual run equals sim.New + Run.
	replayRM, err := rmkit.New("fifo", cluster, rmkit.Options{})
	if err != nil {
		return nil, err
	}
	trm := &timedRM{inner: replayRM, tr: tr}
	fresh, err := sp.generate(seed)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(cluster, trm, fresh)
	if err != nil {
		return nil, err
	}
	s.SetTelemetry(obs.New(obs.DiscardSink{}), 0)
	tr.begin(spanReplay, 0)
	t1 := time.Now()
	steps, err := stepAll(s, tr)
	loop := time.Since(t1)
	tr.end()
	if err != nil {
		return nil, err
	}
	m, err := s.Finish()
	if err != nil {
		return nil, err
	}
	if served == nil || served.Fingerprint() != m.Fingerprint() {
		return nil, fmt.Errorf("unsharded engine and bare sim replay disagree on the fingerprint")
	}

	routeNS, submitNS := medianDuration(routeWalls), medianDuration(submitWalls)
	// The journal's share was measured by the traced routed repetition.
	admitNS, appendNS := medianDuration(admitWalls), L["wal.us_per_append"]*1e3
	httpSelf := max(postNS-routeNS, 0)
	routeSelf := max(routeNS-submitNS, 0)
	submitSelf := max(submitNS-admitNS-appendNS, 0)
	L["service.http_self_us"] = httpSelf / 1e3
	L["shard.route_self_us"] = routeSelf / 1e3
	L["service.submit_self_us"] = submitSelf / 1e3
	L["core.admission_us_per_call"] = admitNS / 1e3
	// Non-zero only when a subtraction came out negative and was clamped.
	L["service.twin_residual_us"] = (postNS - (httpSelf + routeSelf + submitSelf + admitNS + appendNS)) / 1e3
	L["service.drain_s"] = drain.Seconds()
	L["service.drain_self_s"] = max(drain-loop, 0).Seconds()
	L["sim.steps"] = float64(steps)
	by := byLayer(tr.spans)
	// The drain's callbacks and the replay's both land in the core layer
	// of this tracer; only the replay's steps are sim spans.
	L["sim.busy_s"] = float64(by["sim"].busy) / 1e9
	L["sim.self_s"] = float64(by["sim"].self) / 1e9
	L["sim.us_per_step"] = ratio(float64(by["sim"].busy)/1e3, float64(steps))
	return tr.spans, nil
}
