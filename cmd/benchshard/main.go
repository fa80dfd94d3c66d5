// Command benchshard measures how the sharded admission front-end scales:
// it stands the scheduling service up in-process at 1, 2, ..., -shards
// shards (same total cluster, same total -maxpending budget), drives the
// SAME precomputed open-loop arrival ramp against each width over HTTP —
// loadgen's wall/stress-mode methodology: submission times never depend on
// responses and sizes are heavy-tailed — and writes the per-width results
// to -out (the committed BENCH_shard.json).
//
// The headline number per width is sustainedJobsPerSec: jobs the service
// admitted (and did not later shed) divided by the ramp duration. The ramp
// deliberately overdrives every width, so admissions are drain-limited and
// the sustained rate directly measures how fast the width's solvers clear
// pending work. loadgen's bucketed estimate (highest 1-second offered
// bucket absorbed with zero sheds and bucket p99 within -p99cap) is also
// reported as maxSustainableJobsPerSec, but on a saturated single box it
// is quantized to the offered curve and noisy between adjacent widths.
//
// The stream is generated for the SMALLEST shard's capacity (m / max
// shards), so every job is individually feasible at every width and the
// offered load is identical across configs; what changes with the shard
// count is how fast each engine's solver drains its slice of the pending
// queue, which is exactly the throughput lever sharding is supposed to
// pull.
//
// Usage:
//
//	benchshard                                  # 1, 2, 4 shards on m=12
//	benchshard -shards 4 -rate0 10 -rate1 300 -duration 12s
//	benchshard -out BENCH_shard.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"mrcprm"
	"mrcprm/internal/cli"
)

func main() {
	common := cli.New(cli.WithSeed(1))
	var (
		m          = flag.Int("m", 12, "total cluster size (partitioned across shards)")
		maxShards  = flag.Int("shards", 4, "largest shard count; widths double from 1 up to this")
		speedup    = flag.Float64("speedup", 300, "wall mode: simulated ms per wall ms")
		rate0      = flag.Float64("rate0", 10, "initial arrival rate in jobs/s")
		rate1      = flag.Float64("rate1", 300, "final arrival rate in jobs/s")
		duration   = flag.Duration("duration", 12*time.Second, "ramp duration per width")
		tailAlpha  = flag.Float64("tailalpha", 1.5, "bounded-Pareto tail index for job-size multipliers")
		maxPending = flag.Int("maxpending", 192, "TOTAL pending budget (split across shards)")
		p99Cap     = flag.Duration("p99cap", 250*time.Millisecond, "per-second p99 admission latency bound for the bucketed sustainable-rate estimate")
		out        = flag.String("out", "BENCH_shard.json", "output JSON path (- for stdout)")
	)
	common.Parse()

	plan, err := buildPlan(planConfig{
		shardM: *m / *maxShards, seed: common.Seed,
		rate0: *rate0, rate1: *rate1, duration: *duration, tailAlpha: *tailAlpha,
	})
	if err != nil {
		fatal(err)
	}

	rep := &report{
		Benchmark: "shard-scaling", M: *m, Speedup: *speedup,
		Rate0: *rate0, Rate1: *rate1, DurationSec: duration.Seconds(),
		TailAlpha: *tailAlpha, Seed: common.Seed,
		MaxPending: *maxPending, P99CapMS: float64(p99Cap.Milliseconds()),
		Submitted: len(plan.times),
	}
	for n := 1; n <= *maxShards; n *= 2 {
		cfg := widthConfig{
			shards: n, m: *m, speedup: *speedup,
			maxPending: *maxPending, p99Cap: *p99Cap,
		}
		res, err := runWidth(cfg, plan)
		if err != nil {
			fatal(fmt.Errorf("%d shards: %w", n, err))
		}
		rep.Configs = append(rep.Configs, *res)
		fmt.Printf("benchshard: shards=%d accepted=%d shed=%d rejected=%d p50=%.1fms p99=%.1fms sustained=%.1f jobs/s\n",
			n, res.Accepted, res.Shed, res.Rejected, res.LatencyP50MS, res.LatencyP99MS, res.SustainedJobsPerSec)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	// Atomic write: CI reads the committed bench JSON; a rename never
	// exposes a torn document.
	if err := cli.WriteFileAtomic(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	first, last := rep.Configs[0], rep.Configs[len(rep.Configs)-1]
	fmt.Printf("wrote %s: %d shards sustain %.1f jobs/s vs %.1f at 1 shard\n",
		*out, last.Shards, last.SustainedJobsPerSec, first.SustainedJobsPerSec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// planConfig parameterizes the shared submission plan.
type planConfig struct {
	shardM    int
	seed      uint64
	rate0     float64
	rate1     float64
	duration  time.Duration
	tailAlpha float64
}

// plan is the precomputed open-loop stream: every width replays exactly
// these (time, spec) pairs.
type plan struct {
	times    []time.Duration
	specs    []mrcprm.JobSpec
	duration time.Duration
}

// buildPlan mirrors loadgen's stress-mode generator: an exponential
// arrival process ramping rate0 -> rate1, with sizes drawn from the
// synthetic workload (scaled for the smallest shard) under a bounded
// Pareto multiplier.
func buildPlan(cfg planConfig) (*plan, error) {
	wcfg := mrcprm.DefaultSyntheticWorkload()
	wcfg.NumResources = cfg.shardM
	// Shrink jobs relative to the offline defaults: the ramp offers tens of
	// jobs per second, so individual jobs must be small enough that the
	// cluster's speedup-scaled drain rate is in the same range — otherwise
	// every width just fills its pending budget and the comparison is noise.
	wcfg.NumMapLo, wcfg.NumMapHi = 1, 12
	wcfg.NumReduceLo, wcfg.NumReduceHi = 1, 4
	wcfg.EmaxSec = 10
	// No far-future earliest starts: a stress job parked 10^4 seconds out
	// would hold a pending slot for the whole bench without ever running.
	wcfg.P = 0
	base, err := wcfg.Generate(50, mrcprm.NewStream(cfg.seed, 0xfeed))
	if err != nil {
		return nil, err
	}
	rng := mrcprm.NewStream(cfg.seed, 0x57e55)
	durS := cfg.duration.Seconds()
	p := &plan{duration: cfg.duration}
	for t := 0.0; t < durS; {
		r := cfg.rate0 + (cfg.rate1-cfg.rate0)*t/durS
		if r < 0.1 {
			r = 0.1
		}
		t += rng.ExpFloat64() / r
		if t < durS {
			p.times = append(p.times, time.Duration(t*float64(time.Second)))
		}
	}
	sort.Slice(p.times, func(i, k int) bool { return p.times[i] < p.times[k] })
	p.specs = make([]mrcprm.JobSpec, len(p.times))
	for i := range p.specs {
		p.specs[i] = stressSpec(base[rng.IntN(len(base))], rng.Float64(), cfg.tailAlpha)
	}
	return p, nil
}

// stressSpec is loadgen's heavy-tailed scaling: the map phase grows by a
// bounded Pareto multiplier (support [1, 16]) and the deadline stretches
// proportionally so the job stays individually feasible. Unlike loadgen's
// variant, the SLA window is measured from the job's GENERATED arrival
// before rebasing to 0 — carrying the absolute deadline over would hand
// late-generated templates windows of thousands of sim-seconds, and the
// lateness-minimizing solver would happily park them that far out.
func stressSpec(template *mrcprm.Job, u, alpha float64) mrcprm.JobSpec {
	spec := mrcprm.JobSpecOf(template)
	window := spec.DeadlineMS - spec.ArrivalMS
	spec.ArrivalMS = 0 // the wall-mode service restamps at receipt
	spec.EarliestStartMS = 0
	mult := math.Pow(1-u*(1-math.Pow(1.0/16, alpha)), -1/alpha)
	n := int(math.Ceil(float64(len(spec.MapExecMS)) * mult))
	if n > 24 {
		n = 24
	}
	maps := make([]int64, n)
	for i := range maps {
		maps[i] = spec.MapExecMS[i%len(spec.MapExecMS)]
	}
	spec.MapExecMS = maps
	spec.DeadlineMS = int64(float64(window) * mult)
	return spec
}

// widthConfig parameterizes one shard-count run.
type widthConfig struct {
	shards     int
	m          int
	speedup    float64
	maxPending int
	p99Cap     time.Duration
}

// widthReport is one width's entry in the bench JSON.
type widthReport struct {
	Shards   int `json:"shards"`
	Accepted int `json:"accepted"`
	Shed     int `json:"shed"`
	Rejected int `json:"rejected"`
	Errors   int `json:"errors"`

	LatencyP50MS float64 `json:"latencyP50Ms"`
	LatencyP90MS float64 `json:"latencyP90Ms"`
	LatencyP99MS float64 `json:"latencyP99Ms"`

	// SustainedJobsPerSec is admitted jobs over the ramp duration — the
	// drain-limited throughput this width actually achieved under an
	// overdriven offered load. This is the headline scaling metric.
	SustainedJobsPerSec float64 `json:"sustainedJobsPerSec"`

	// MaxSustainableJobsPerSec is the highest 1-second offered rate this
	// width absorbed with zero sheds and bucket p99 within the cap
	// (loadgen's bucketed estimate; noisy on a saturated single box).
	MaxSustainableJobsPerSec float64 `json:"maxSustainableJobsPerSec"`
}

// report is the committed BENCH_shard.json shape.
type report struct {
	Benchmark   string  `json:"benchmark"`
	M           int     `json:"m"`
	Speedup     float64 `json:"speedup"`
	Rate0       float64 `json:"rate0JobsPerSec"`
	Rate1       float64 `json:"rate1JobsPerSec"`
	DurationSec float64 `json:"durationSec"`
	TailAlpha   float64 `json:"tailAlpha"`
	Seed        uint64  `json:"seed"`
	MaxPending  int     `json:"maxPending"`
	P99CapMS    float64 `json:"p99CapMs"`
	Submitted   int     `json:"submitted"`

	Configs []widthReport `json:"configs"`
}

// sample is one submission's outcome.
type sample struct {
	at      time.Duration
	latency time.Duration
	status  int
	err     bool
}

// runWidth stands up the service at one shard count, replays the plan over
// HTTP, and folds the outcomes into a width report.
func runWidth(cfg widthConfig, p *plan) (*widthReport, error) {
	scfg := mrcprm.ServiceConfig{
		Cluster:    mrcprm.Cluster{NumResources: cfg.m, MapSlots: 2, ReduceSlots: 2},
		Manager:    mrcprm.DefaultConfig(),
		Mode:       mrcprm.ServiceWall,
		Speedup:    cfg.speedup,
		Admission:  true,
		MaxPending: (cfg.maxPending + cfg.shards - 1) / cfg.shards,
	}

	var (
		run interface {
			Start() error
			Stop()
			Done() <-chan struct{}
		}
		handler http.Handler
	)
	if cfg.shards > 1 {
		router, err := mrcprm.NewShardRouter(mrcprm.ShardConfig{Base: scfg, Shards: cfg.shards, Seed: 1})
		if err != nil {
			return nil, err
		}
		run, handler = router, mrcprm.NewShardHandler(router)
	} else {
		engine, err := mrcprm.NewServiceEngine(scfg)
		if err != nil {
			return nil, err
		}
		run, handler = engine, mrcprm.NewServiceHandler(engine)
	}
	if err := run.Start(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }()
	addr := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	samples := make([]sample, len(p.times))
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range p.times {
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			t0 := time.Now()
			status, err := postJSON(client, addr+"/v1/jobs", p.specs[i])
			samples[i] = sample{at: due, latency: time.Since(t0), status: status, err: err != nil}
		}(i, due)
	}
	wg.Wait()
	_ = srv.Close()
	// Abort outstanding work: the bench measures the admission path, not
	// the drain.
	run.Stop()
	<-run.Done()

	return analyze(cfg, p, samples), nil
}

// analyze folds one width's samples into its report entry.
func analyze(cfg widthConfig, p *plan, samples []sample) *widthReport {
	rep := &widthReport{Shards: cfg.shards}
	var lats []time.Duration
	nBuckets := int(p.duration.Seconds()) + 1
	type bucket struct {
		offered, shed int
		lats          []time.Duration
	}
	buckets := make([]bucket, nBuckets)
	for _, s := range samples {
		b := int(s.at.Seconds())
		if b >= nBuckets {
			b = nBuckets - 1
		}
		buckets[b].offered++
		switch {
		case s.err:
			rep.Errors++
			continue
		case s.status == http.StatusAccepted:
			rep.Accepted++
		case s.status == http.StatusUnprocessableEntity:
			rep.Rejected++
		case s.status == http.StatusTooManyRequests:
			rep.Shed++
			buckets[b].shed++
		default:
			rep.Errors++
			continue
		}
		lats = append(lats, s.latency)
		buckets[b].lats = append(buckets[b].lats, s.latency)
	}
	sort.Slice(lats, func(i, k int) bool { return lats[i] < lats[k] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if len(lats) > 0 {
		rep.LatencyP50MS = ms(percentile(lats, 0.50))
		rep.LatencyP90MS = ms(percentile(lats, 0.90))
		rep.LatencyP99MS = ms(percentile(lats, 0.99))
	}
	for _, b := range buckets {
		if b.offered == 0 {
			continue
		}
		sort.Slice(b.lats, func(x, y int) bool { return b.lats[x] < b.lats[y] })
		p99 := time.Duration(0)
		if len(b.lats) > 0 {
			p99 = percentile(b.lats, 0.99)
		}
		if b.shed == 0 && p99 <= cfg.p99Cap && float64(b.offered) > rep.MaxSustainableJobsPerSec {
			rep.MaxSustainableJobsPerSec = float64(b.offered)
		}
	}
	rep.SustainedJobsPerSec = float64(rep.Accepted) / p.duration.Seconds()
	return rep
}

// percentile returns the q-quantile of sorted durations (nearest rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func postJSON(client *http.Client, url string, body any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}
