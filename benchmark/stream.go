package main

import (
	"fmt"
	"runtime"
	"time"

	"mrcprm/internal/core"
	"mrcprm/internal/obs"
	"mrcprm/internal/sim"
	"mrcprm/internal/workload"
)

// rep is what one repetition of a workload measured. Timing fields vary
// run to run; ontime, turnaround, fingerprint, opNodes and the counters in
// layer are pure functions of the code and the seed.
type rep struct {
	setup, run time.Duration
	// submit is the wall time of the submission phase that precedes the run
	// (intake-fifo only).
	submit    time.Duration
	jobs      int // jobs finished
	attempted int // operations attempted: jobs, plus submissions on intake-fifo
	failed    int
	// sched is the wall time inside resource-manager callbacks (or
	// SolveBatch): the numerator of the paper's O.
	sched time.Duration
	// ops is the latency of each user-facing operation in stream order;
	// opNodes the solver nodes behind each (nil where no solver runs).
	ops     []time.Duration
	opNodes []int64

	ontime      float64 // 1 - P
	turnaround  float64 // T, simulated seconds
	fingerprint uint64
	mem         memDelta

	// aux carries what a workload's own output check needs.
	aux any

	// Traced repetitions only.
	layer map[string]float64
	spans []span
}

// memDelta is the runtime.MemStats movement over a run phase.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCount             uint32
	gcPauseNS           uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(a runtime.MemStats) memDelta {
	b := readMem()
	return memDelta{
		allocBytes: b.TotalAlloc - a.TotalAlloc,
		mallocs:    b.Mallocs - a.Mallocs,
		gcCount:    b.NumGC - a.NumGC,
		gcPauseNS:  b.PauseTotalNs - a.PauseTotalNs,
	}
}

func (d memDelta) layer(into map[string]float64) {
	into["go.gc_count"] = float64(d.gcCount)
	into["go.gc_pause_ms"] = float64(d.gcPauseNS) / 1e6
	into["go.alloc_mb"] = float64(d.allocBytes) / (1 << 20)
	into["go.mallocs"] = float64(d.mallocs)
}

// streamSpec is an open stream of Table 3 jobs driven through sim.Step
// under MRCP-RM. Arrivals are Poisson in simulated time; in wall time the
// loop is closed with one client: the next event is processed when the
// previous one returns.
type streamSpec struct {
	gen     workload.SyntheticConfig
	jobs    int
	cluster func(workload.SyntheticConfig) (sim.Cluster, error)
	cfg     core.Config
	rngTag  uint64
}

func uniformCluster(g workload.SyntheticConfig) (sim.Cluster, error) {
	return sim.Cluster{NumResources: g.NumResources,
		MapSlots: g.MapSlotsPerResource, ReduceSlots: g.ReduceSlotsPerResource}, nil
}

// benchConfig is the solver budget every workload shares: clock-free
// (node-limited, no time limit, one worker), so the work per run is a
// function of the code and the seed only.
func benchConfig(nodeLimit int64) core.Config {
	cfg := core.DeterministicConfig()
	cfg.NodeLimit = nodeLimit
	return cfg
}

func (sp streamSpec) scaled(div int) streamSpec {
	sp.jobs = max(sp.jobs/div, 10)
	return sp
}

func (sp streamSpec) size() string {
	return fmt.Sprintf("jobs=%d m=%d lambda=%g nodelimit=%d warmstart=%v",
		sp.jobs, sp.gen.NumResources, sp.gen.Lambda, sp.cfg.NodeLimit, sp.cfg.WarmStart)
}

func (sp streamSpec) runRep(seed uint64, traced bool) (*rep, error) {
	r := &rep{attempted: sp.jobs}
	var tr *tracer
	var sink *benchSink

	t0 := time.Now()
	jobs, err := generate(sp.gen, sp.jobs, sp.rngTag, seed)
	if err != nil {
		return nil, err
	}
	genWall := time.Since(t0)
	cluster, err := sp.cluster(sp.gen)
	if err != nil {
		return nil, err
	}
	mgr := core.New(cluster, sp.cfg)
	if traced {
		tr = newTracer(4 * countTasks(jobs))
		sink = newBenchSink()
	}
	rm := newTimedMRCP(mgr, tr, sink)
	s, err := sim.New(cluster, rm, jobs)
	if err != nil {
		return nil, err
	}
	if traced {
		// The manager's telemetry carries the solve events. The simulator's
		// is left off: its sampler scans every task state each 5 simulated
		// seconds, which triples the run on paper-stream and would swamp
		// sim.self_s with work the untraced pass never does.
		mgr.SetTelemetry(obs.New(sink))
	}
	r.setup = time.Since(t0)

	runtime.GC()
	mem0 := readMem()
	t1 := time.Now()
	if traced {
		tr.begin(spanRun, 0)
	}
	steps, err := stepAll(s, tr)
	if err != nil {
		return nil, err
	}
	m, err := s.Finish()
	if traced {
		tr.end()
	}
	r.run = time.Since(t1)
	r.mem = memSince(mem0)
	if err != nil {
		return nil, err
	}

	st := mgr.Stats()
	r.jobs = m.JobsCompleted
	r.failed = (sp.jobs - m.JobsCompleted) + st.FallbackRounds
	r.sched = rm.busy
	r.ops, r.opNodes = rm.ops, rm.opNodes
	r.ontime = 1 - m.P()
	r.turnaround = m.T()
	r.fingerprint = m.Fingerprint()
	if !traced {
		return r, nil
	}

	r.spans = tr.spans
	L := map[string]float64{
		"workload.gen_s": genWall.Seconds(),
		"workload.jobs":  float64(len(jobs)),
		"workload.tasks": float64(countTasks(jobs)),
		"sim.steps":      float64(steps),
		"core.calls":     float64(rm.calls),
		"core.rounds":    float64(st.Rounds),
		"core.deferred":  float64(st.Deferred),
		"core.slips":     float64(st.Slips),

		"core.fallback_rounds": float64(st.FallbackRounds),
		"core.warm_hinted":     float64(st.WarmStartRounds),
		"core.warm_seeded":     float64(st.WarmStartSeeded),
		"core.warm_seed_ratio": ratio(float64(st.WarmStartSeeded), float64(st.WarmStartRounds)),
		"obs.events":           float64(sink.events),
	}
	r.failed += sink.undecoded
	spanLayers(tr.spans, r.run, L)
	solveLayers(sink.solves, sink.usefulNodes, L)
	r.mem.layer(L)
	r.layer = L
	return r, nil
}

// stepAll drives the simulator until no event remains and returns the
// number of steps; with a tracer every Step is a sim.step span.
func stepAll(s *sim.Simulator, tr *tracer) (steps int, err error) {
	for more := true; more; steps++ {
		if tr != nil {
			tr.begin(spanStep, int64(steps))
		}
		more, err = s.Step()
		if tr != nil {
			tr.end()
		}
		if err != nil {
			return steps, err
		}
	}
	return steps, nil
}

func countTasks(jobs []*workload.Job) int {
	n := 0
	for _, j := range jobs {
		n += j.NumTasks()
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanLayers fills the busy/self times of the sim, core and cp layers from
// the span tree, and the share of the run wall the layers' self times
// explain (the rest is the harness loop inside the root "run" span).
func spanLayers(spans []span, runWall time.Duration, L map[string]float64) {
	by := byLayer(spans)
	get := func(l string) layerTimes {
		if lt := by[l]; lt != nil {
			return *lt
		}
		return layerTimes{}
	}
	simL, coreL, cpL := get("sim"), get("core"), get("cp")
	L["sim.busy_s"] = float64(simL.busy) / 1e9
	L["sim.self_s"] = float64(simL.self) / 1e9
	L["sim.us_per_step"] = ratio(float64(simL.busy)/1e3, float64(simL.count))
	L["core.busy_s"] = float64(coreL.busy) / 1e9
	L["core.self_s"] = float64(coreL.self) / 1e9
	L["cp.busy_s"] = float64(cpL.busy) / 1e9
	var explained int64
	for l, lt := range by {
		if l != "run" {
			explained += lt.self
		}
	}
	L["trace.coverage"] = ratio(float64(explained), float64(runWall))
}

// solveLayers fills the cp counters from the solve events of one run.
func solveLayers(solves []solveEvent, usefulNodes int64, L map[string]float64) {
	var nodes, backtracks, props, passes, accepts, limitHits int64
	var busyMS float64
	first := make([]float64, 0, len(solves))
	tasks := make([]float64, 0, len(solves))
	for _, s := range solves {
		nodes += s.Nodes
		backtracks += s.Backtracks
		props += s.Propagations
		passes += int64(s.ImprovePasses)
		accepts += int64(s.ImproveAccepts)
		if s.NodeLimitHit || s.TimeLimitHit {
			limitHits++
		}
		busyMS += s.WallSolve
		first = append(first, s.WallFirst)
		tasks = append(tasks, float64(s.ModelTasks))
	}
	L["cp.solves"] = float64(len(solves))
	L["cp.nodes"] = float64(nodes)
	L["cp.backtracks"] = float64(backtracks)
	L["cp.propagations"] = float64(props)
	L["cp.us_per_node"] = ratio(busyMS*1e3, float64(nodes))
	L["cp.props_per_node"] = ratio(float64(props), float64(nodes))
	L["cp.limit_hits"] = float64(limitHits)
	L["cp.first_solution_ms_p50"] = median(first)
	L["cp.improve_passes"] = float64(passes)
	L["cp.improve_accepts"] = float64(accepts)
	L["cp.useful_node_frac"] = ratio(float64(usefulNodes), float64(nodes))
	L["core.model_tasks_p50"] = median(tasks)
	maxTasks := 0.0
	for _, t := range tasks {
		maxTasks = max(maxTasks, t)
	}
	L["core.model_tasks_max"] = maxTasks
}
